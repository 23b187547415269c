#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current library.

    python3 perfbench/pin_digests.py

Runs every op of every workload once for the default seed, requires each to
pass its correctness checks, and pins the digest of its payload (JSON) or
text (CSV).
A change that alters a payload byte must re-pin on purpose and say so; until
then every such op counts as failed in the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    cli = run.load_cli()
    import checks
    import workloads

    seed = workloads.DEFAULT_SEED
    states = sys.modules["orderctx.states"]

    def order_leq(lo, hi):
        return states.bayesian_leq(states.ClassicalState(lo), states.ClassicalState(hi))

    pins = {"seed": seed, "workloads": {}}
    workdir = os.path.join(run.WORK, f"pin-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            digests = []
            for op in workloads.generate(name, seed, os.path.join(workdir, name)):
                code, _, out, err = run.invoke(cli, op.argv)
                reason, dig = checks.check_op(op, code, out.text(), err.text(), order_leq)
                if reason is not None:
                    print(f"error: {name}: {' '.join(op.argv)[:120]}: {reason}", file=sys.stderr)
                    return 1
                digests.append(dig)
            pins["workloads"][name] = digests
            print(f"{name}: {len(digests)} ops pinned", file=sys.stderr)
    finally:
        run.remove_workdir(workdir)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
