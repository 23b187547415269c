#!/usr/bin/env python3
"""Run every workload and print its end-to-end metrics by name and unit.

    python3 perfbench/report.py [--seed 1] [--traced]

Each workload runs in its own process (so peak_rss_mb is its own).  The
table shows the five metrics of BENCHMARK.json plus fail_ratio, the tail's
percentile and sample count.  With --traced, a second, traced run per
workload adds the tracing overhead, the per-layer metrics it reached and the
ROADMAP baseline rows derived from them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--traced", action="store_true", help="also run each workload traced")
    args = parser.parse_args(argv)

    for name in workloads.WORKLOADS:
        details, result = run_one(name, args.seed, bench["run_seconds"], 0)
        tail = details["op_tail"]
        print(f"== {name} (seed {args.seed}, {details['passes']} passes of {details['ops_per_pass']} ops,"
              f" digests {details['digests']}, correct={result['correct']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<12} {v['value']:>14.6g} {v['unit']}")
        print(f"  {'fail_ratio':<12} {details['fail_ratio']:>14.6g} ({result['failed']} of {result['attempted']})")
        print(f"  op_tail_ms is p{tail['percentile']:.1f} over {tail['samples']} ops"
              f" ({tail['samples_beyond']} beyond it)")
        for failure in details["failures"][:5]:
            print(f"  FAIL {failure['argv']}: {failure['reason']}")
        if args.traced:
            tdetails, tresult = run_one(name, args.seed, bench["run_seconds"], 1)
            tr = tdetails["tracing"]
            print(f"  tracing overhead {tr['overhead_s']:.4g} s per pass"
                  f" (untraced {tr['untraced_run_s']:.4g} s); wait: {tr['wait']}")
            for metric, v in tresult["metrics"].items():
                if v["value"]:
                    print(f"    {metric:<42} {v['value']:>14.6g} {v['unit']}")
            for row, value in tdetails["roadmap_baseline"].items():
                print(f"    roadmap {row:<34} {value:>14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
