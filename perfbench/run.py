#!/usr/bin/env python3
"""orderctx benchmark: one workload, closed loop, one client, in-process.

    python3 perfbench/run.py --workload spin --seed 1 --seconds 25 --trace 0

Runs from a source checkout: the library is imported from `src/` next to
this directory, never from an installed copy, and the run fails (exit 2)
when `src/orderctx` is absent.

Set-up generates the workload's op list and input files from the seed and
warms every subcommand it uses.  The timed part then repeats passes over the
op list, each op a call of `orderctx.cli.main(argv)` with stdout and stderr
sent to in-memory sinks, until `--seconds` is spent (three passes at least).
After each op, outside its timed interval, reference work
(perfbench/reference.py) measures how fast the host runs right then; the
reported latencies are the measured ones divided by that speed factor.
Every op is checked outside the timed interval: the first pass runs the full
correctness checks (perfbench/checks.py) and compares payload digests with
perfbench/digests.json when the seed is the pinned one; later passes must
reproduce the first pass's output byte for byte, duration field aside.

The last line of stdout is the result object; the line before it holds the
details (provenance, tail percentile, fail ratio, failure reasons, per-layer
tables).  `--trace 1` alternates untraced and traced passes, starting with
an untraced one, and reports the per-layer metrics per traced pass plus the
tracing overhead: the median traced pass minus the median untraced pass.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rng.philox_generator.calls": "count",
    "rng.philox_generator.busy_s": "s",
    "qubit.run_sequence.calls": "count",
    "qubit.run_sequence.self_s": "s",
    "qubit.transition_probs.calls": "count",
    "qubit.transition_probs.busy_s": "s",
    "experiments.qubit_experiment.trials": "count",
    "experiments.qubit_experiment.self_s": "s",
    "experiments.fixed_basis_repeat.trials": "count",
    "experiments.fixed_basis_repeat.self_s": "s",
    "experiments.boxes_experiment.steps": "count",
    "experiments.boxes_experiment.self_s": "s",
    "experiments.determinism_check.busy_s": "s",
    "measures.shannon_bits.calls": "count",
    "measures.shannon_bits.elements": "count",
    "measures.shannon_bits.busy_s": "s",
    "measures.verify_axioms.samples": "count",
    "measures.verify_axioms.self_s": "s",
    "states.sample_state.calls": "count",
    "states.sample_state.busy_s": "s",
    "states.eliminate.calls": "count",
    "states.eliminate.busy_s": "s",
    "states.bayesian_leq.calls": "count",
    "states.bayesian_leq.busy_s": "s",
    "poset.load_poset.busy_s": "s",
    "poset.directed_family.self_s": "s",
    "poset.directed_family.subsets_scanned": "count",
    "poset.directed_family.directed_found": "count",
    "poset.directed_family.useful_ratio": "ratio",
    "poset.way_below_matrix.self_s": "s",
    "poset.size_refusals": "count",
    "context.contextual_distance.calls": "count",
    "context.contextual_distance.busy_s": "s",
    "context.qubit_distance_curve.points": "count",
    "context.qubit_distance_curve.busy_s": "s",
    "cli.handler.self_s": "s",
    "cli.main.self_s": "s",
    "cli.doc_bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10


def load_cli():
    """Import `orderctx.cli` from this checkout's `src/`, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "orderctx", "cli.py")):
        print(f"error: no orderctx sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import orderctx.cli

    if not os.path.abspath(orderctx.cli.__file__).startswith(SRC + os.sep):
        print(f"error: orderctx imported from {orderctx.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return orderctx.cli


class Sink:
    """Text stream that keeps what is written and counts it."""

    __slots__ = ("parts", "nbytes")

    def __init__(self):
        self.parts = []
        self.nbytes = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.nbytes += len(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def invoke(cli, argv):
    """Timed call of cli.main: (exit code or None, seconds, stdout sink, stderr sink)."""
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raise out of main is a failed op, not a crashed run
        code = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    sys.stdout, sys.stderr = saved
    return code, seconds, out, err


class OpRecord:
    __slots__ = ("op", "latencies", "text_digest", "exit", "verdict")

    def __init__(self, op):
        self.op = op
        self.latencies = []
        self.text_digest = None  # of the first pass's output
        self.exit = None
        self.verdict = None  # failure reason from the first pass, or None


class Runner:
    """Runs passes over the op list and counts attempted and failed ops."""

    def __init__(self, cli, ops, pinned):
        import checks

        self.cli = cli
        self.checks = checks
        self.records = [OpRecord(op) for op in ops]
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pass_seconds = []  # sum of the scaled op latencies
        self.pass_measured_s = []  # sum of the op latencies as measured
        self.pass_bytes = []
        self.order_leq = None
        self.layers = {}  # per-layer totals over the traced passes, times scaled
        self.op_spans = []  # per-op layer deltas of the first traced pass

    def _fail(self, rec, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"argv": " ".join(rec.op.argv)[:160], "reason": reason})

    def run_pass(self, pass_index: int, tracer=None) -> None:
        check = self.checks
        total = 0.0
        measured = 0.0
        nbytes = 0
        record_spans = tracer is not None and not self.op_spans
        for i, rec in enumerate(self.records):
            before = tracer.snapshot() if tracer is not None else None
            code, seconds, out, err = invoke(self.cli, rec.op.argv)
            after = tracer.snapshot() if tracer is not None else None
            factor = reference.measure_speed(reference.chunks_for(seconds))
            scaled = seconds / factor
            if tracer is not None:
                # span times are scaled like the op latency; counts are not
                spans = {k: (v - before.get(k, 0)) / (factor if k.endswith("_s") else 1) for k, v in after.items()}
                for k, v in spans.items():
                    self.layers[k] = self.layers.get(k, 0) + v
                if record_spans:
                    spans["cli.doc_bytes"] = out.nbytes
                    self.op_spans.append(spans)
            measured += seconds
            total += scaled
            nbytes += out.nbytes
            rec.latencies.append(scaled)
            self.attempted += 1
            text = out.text()
            if pass_index == 0:
                reason, dig = check.check_op(rec.op, code, text, err.text(), self.order_leq)
                if reason is None and self.pinned is not None and self.pinned[i] != dig:
                    reason = f"payload digest {dig} != pinned {self.pinned[i]}"
                rec.verdict, rec.exit = reason, code
                rec.text_digest = check.text_digest(text)
            elif code != rec.exit or check.text_digest(text) != rec.text_digest:
                reason = "output differs from the first pass"
            else:
                reason = rec.verdict
            if reason is not None:
                self._fail(rec, reason)
            del text, out, err
            gc.collect()
        self.pass_seconds.append(total)
        self.pass_measured_s.append(measured)
        self.pass_bytes.append(nbytes)


# One set-up, run in a fresh interpreter and timed inside it.  numpy and the
# harness modules load before the clock starts: they are the same for every
# version of the library, and the page-fault-heavy interpreter start drifts by
# up to half between periods on a shared host, which would swamp the rest.
# The reference chunks that follow give the set-up's speed factor.
SETUP_CHILD = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
import run, workloads, reference
t0 = time.perf_counter()
cli = run.load_cli()
workloads.generate(sys.argv[2], int(sys.argv[3]), sys.argv[4])
for argv in workloads.warmup_argvs(sys.argv[2], sys.argv[4]):
    code, _, _, err = run.invoke(cli, argv)
    if code != 0:
        sys.exit(f"warm-up {argv} exited {code}: {err.text()[:200]}")
setup_s = time.perf_counter() - t0
reference.measure_speed(5)
print(setup_s, reference.measure_speed(40))
"""


def warm_up(cli, workloads, workload, workdir) -> None:
    for argv in workloads.warmup_argvs(workload, workdir):
        code, _, _, err = invoke(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}: {err.text()[:200]}")


def measure_setup(workload, seed, workdir):
    """(median in-interpreter set-up seconds divided by the speed factor,
    median as measured, median whole-process seconds) over SETUP_REPEATS
    fresh interpreters that each import orderctx, generate the inputs and
    warm every subcommand once."""
    scaled, inside, whole = [], [], []
    for rep in range(SETUP_REPEATS):
        repdir = os.path.join(workdir, f"setup{rep}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, HERE, workload, str(seed), repdir],
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False)
        whole.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {rep} exited {proc.returncode}: {proc.stderr[-500:]}")
        setup_s, factor = map(float, proc.stdout.split()[-2:])
        inside.append(setup_s)
        scaled.append(setup_s / factor)
    return statistics.median(scaled), statistics.median(inside), statistics.median(whole)


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)  # only when no other run is using it
    except OSError:
        pass


def tail(values):
    """(value, percentile, samples, samples beyond): the highest percentile
    with TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = os.path.join(ROOT, ".git", name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    return fh.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + name):
                        return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_pinned(workload: str, seed: int, ops: int, default_seed: int):
    """Pinned digests for the workload's ops, or None when the seed has none."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    if pins["seed"] != default_seed:
        raise RuntimeError(f"digests.json pins seed {pins['seed']}, not the default seed {default_seed};"
                           " re-pin with perfbench/pin_digests.py")
    if seed != default_seed or workload not in pins["workloads"]:
        return None
    pinned = pins["workloads"][workload]
    if len(pinned) != ops:
        raise RuntimeError(f"digests.json pins {len(pinned)} {workload} ops, the workload has {ops};"
                           " re-pin with perfbench/pin_digests.py")
    return pinned


def per_layer(layers, check_tracer, passes: int, doc_bytes: float, overhead: float):
    """(PER_LAYER values, every traced number), both per traced pass."""
    snap = {k: v / passes for k, v in layers.items()}
    checked = check_tracer.snapshot()
    values = {}
    for name in PER_LAYER:
        if name.startswith("states.bayesian_leq."):
            values[name] = checked.get(name, 0)  # called by the first pass's checks only
        else:
            values[name] = snap.get(name, 0)
    scanned = values["poset.directed_family.subsets_scanned"]
    values["poset.directed_family.useful_ratio"] = (
        values["poset.directed_family.directed_found"] / scanned if scanned else 0.0)
    values["cli.doc_bytes"] = doc_bytes
    values["trace.overhead_s"] = overhead
    return values, snap


def roadmap_rows(records, snap, op_spans) -> dict:
    """ROADMAP baseline rows, derived from this run's traced numbers."""
    rows = {}
    calls = snap.get("rng.philox_generator.calls", 0)
    if calls:
        rows["philox_us_per_stream"] = 1e6 * snap["rng.philox_generator.busy_s"] / calls
    for rec, spans in zip(records, op_spans):
        info = rec.op.info
        if info.get("shape") == "chain" and info.get("n") == 15:
            rows["directed_family_chain15_s"] = spans.get("poset.directed_family.busy_s", 0.0)
            rows["way_below_matrix_chain15_self_s"] = spans.get("poset.way_below_matrix.self_s", 0.0)
        if rec.op.kind == "boxes" and rec.op.argv[2] == "2000" and not rec.op.is_csv:
            rows["boxes2000_doc_bytes"] = spans.get("cli.doc_bytes", 0)
            rows["boxes2000_steps"] = spans.get("experiments.boxes_experiment.steps", 0)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, setup_measured_s, setup_process_s = measure_setup(args.workload, args.seed, workdir)
        inputs = os.path.join(workdir, "inputs")
        ops = workloads.generate(args.workload, args.seed, inputs)
        warm_up(cli, workloads, args.workload, inputs)
        reference.measure_speed(50)  # warm, like the subcommands
        runner = Runner(cli, ops, load_pinned(args.workload, args.seed, len(ops), workloads.DEFAULT_SEED))
        states = sys.modules["orderctx.states"]
        tracer = tracing.Tracer() if args.trace else None
        check_tracer = tracing.Tracer() if args.trace else None
        # the checks' only library call; traced apart from the timed passes
        leq = check_tracer.wrap("states.bayesian_leq", states.bayesian_leq) if args.trace else states.bayesian_leq
        runner.order_leq = lambda lo, hi: leq(states.ClassicalState(lo), states.ClassicalState(hi))
        gc.collect()
        gc.freeze()  # imports and inputs stay out of every later collection

        # pass 0 is untraced in both modes and carries the full checks; with
        # --trace 1 untraced and traced passes alternate from there, so that
        # the overhead is a difference of medians taken over the same stretch
        min_passes = MIN_PASSES + MIN_TRACED_PASSES if args.trace else MIN_PASSES
        traced = []  # whether each pass ran traced
        start = time.perf_counter()
        last = 0.0
        while len(traced) < min_passes or (time.perf_counter() - start) + last <= args.seconds:
            is_traced = tracer is not None and len(traced) % 2 == 1
            t0 = time.perf_counter()
            if is_traced:
                tracer.install()
            try:
                runner.run_pass(len(traced), tracer if is_traced else None)
            finally:
                if is_traced:
                    tracer.uninstall()
            last = time.perf_counter() - t0
            traced.append(is_traced)
        measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        gc.unfreeze()
        remove_workdir(workdir)

    per_op = [statistics.median(rec.latencies) for rec in runner.records]
    tail_value, tail_pct, tail_n, tail_beyond = tail(per_op)
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "loop": "closed, one client, in-process cli.main(argv)",
        "ops_per_pass": len(runner.records),
        "passes": len(runner.pass_seconds),
        "measured_s": measured_s,
        "setup_measured_s": setup_measured_s,
        "setup_process_s": setup_process_s,
        "scaling": "each latency divided by the speed factor measured right after it (perfbench/reference.py)",
        "chunk_nominal_s": reference.CHUNK_NOMINAL_S,
        "pass_measured_s": runner.pass_measured_s,
        "pass_run_s": runner.pass_seconds,
        "pass_doc_bytes": runner.pass_bytes,
        "op_tail": {"percentile": tail_pct, "samples": tail_n, "samples_beyond": tail_beyond,
                    "sample": "median latency of one op over the passes"},
        "op_median_ms": [round(1e3 * v, 4) for v in per_op],
        "fail_ratio": runner.failed / runner.attempted,
        "digests": "pinned" if runner.pinned is not None else "not pinned for this seed",
        "failures": runner.failures,
    }
    if args.trace:
        untraced_runs = [s for s, t in zip(runner.pass_seconds, traced) if not t]
        traced_runs = [s for s, t in zip(runner.pass_seconds, traced) if t]
        traced_bytes = [b for b, t in zip(runner.pass_bytes, traced) if t]
        untraced = statistics.median(untraced_runs)
        overhead = statistics.median(traced_runs) - untraced
        metrics_raw, snap = per_layer(runner.layers, check_tracer, len(traced_runs),
                                      statistics.mean(traced_bytes), overhead)
        details["tracing"] = {
            "untraced_run_s": untraced,
            "untraced_pass_run_s": untraced_runs,
            "traced_run_s": traced_runs,
            "overhead_s": overhead,
            "wait": "none: nothing in the library queues, waits or retries",
            "per_pass": dict(sorted(snap.items())),
        }
        details["roadmap_baseline"] = roadmap_rows(runner.records, snap, runner.op_spans)
        metrics = {name: {"value": metrics_raw[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(runner.pass_seconds),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    summary = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items() if not args.trace)
    print(f"{args.workload} seed={args.seed}: {summary or 'traced'} fail_ratio={details['fail_ratio']:.3g}"
          f" tail=p{tail_pct:.1f} of {tail_n} ops, {details['passes']} passes", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
