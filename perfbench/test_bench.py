"""Self-tests of the benchmark harness (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _argvs(ops, directory):
    return [[tok.replace(str(directory), "<dir>") for tok in op.argv] for op in ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_and_files(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ops_a = workloads.generate(name, 7, str(a))
    ops_b = workloads.generate(name, 7, str(b))
    assert _argvs(ops_a, a) == _argvs(ops_b, b)
    assert _files(a) == _files(b)
    assert _argvs(workloads.generate(name, 8, str(c)), c) != _argvs(ops_a, a)


def test_inputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    script = ("import sys, json, workloads; ops = workloads.generate(sys.argv[1], 7, sys.argv[2]);"
              "print(json.dumps([[t.replace(sys.argv[2], '<dir>') for t in op.argv] for op in ops]))")
    outputs = []
    for hash_seed in ("1", "2"):
        directory = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=HERE)
        argvs = [subprocess.run([sys.executable, "-c", script, name, str(directory)], env=env, check=True,
                                capture_output=True, text=True).stdout for name in workloads.WORKLOADS]
        outputs.append((argvs, _files(directory)))
    assert outputs[0] == outputs[1]


class TamperedCli:
    """Stand-in for orderctx.cli whose output passes through `edit`."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        code, _, out, err = run.invoke(CLI, argv)
        sys.stdout.write(self.edit(out.text()))
        sys.stderr.write(err.text())
        return code


def _edit_payload(change):
    def edit(text):
        doc = json.loads(text)
        change(doc["payload"])
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return edit


QUBIT = workloads.Op(["qubit", "--axes", "x", "y", "--trials", "300", "--seed", "5"], "qubit")


def _pinned(op):
    code, _, out, err = run.invoke(CLI, op.argv)
    reason, dig = checks.check_op(op, code, out.text(), err.text())
    assert reason is None
    return dig


def test_genuine_output_passes():
    runner = run.Runner(CLI, [QUBIT], [_pinned(QUBIT)])
    runner.run_pass(0)
    runner.run_pass(1)
    assert (runner.attempted, runner.failed) == (2, 0)


def test_tampered_payload_fails_its_digest():
    def shift(payload):  # counts still sum to the trial count, so only the digest can tell
        plus, minus = payload["empirical_frequencies"][0]
        payload["empirical_frequencies"][0] = [plus + 1, minus - 1]

    runner = run.Runner(TamperedCli(_edit_payload(shift)), [QUBIT], [_pinned(QUBIT)])
    runner.run_pass(0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "digest" in runner.failures[0]["reason"]


def test_tampered_payload_fails_its_check():
    op = workloads.Op(["sweep", "--start", "0.0", "--stop", "1.5", "--points", "7"], "sweep")

    def bump(payload):
        payload["value_bits"][3] += 1e-6

    runner = run.Runner(TamperedCli(_edit_payload(bump)), [op], None)
    runner.run_pass(0)
    assert runner.failed == 1


def test_output_that_changes_between_passes_fails():
    calls = []

    def second_differs(text):
        calls.append(1)
        return text.replace('"trials": 300', '"trials": 301', 1) if len(calls) > 1 else text

    runner = run.Runner(TamperedCli(second_differs), [QUBIT], None)
    runner.run_pass(0)
    runner.run_pass(1)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.failures[0]["reason"] == "output differs from the first pass"


def test_expected_exit_4_counts_as_success(tmp_path):
    refused = [op for op in workloads.generate("domain", 1, str(tmp_path)) if op.expect_exit == 4]
    assert len(refused) == 4
    runner = run.Runner(CLI, refused, None)
    runner.run_pass(0)
    assert (runner.attempted, runner.failed) == (4, 0)

    wrong = [workloads.Op(op.argv, op.kind, 0, op.info) for op in refused]
    runner = run.Runner(CLI, wrong, None)
    runner.run_pass(0)
    assert runner.failed == 4


def test_digests_pinned_for_another_seed_stop_the_run(tmp_path):
    ops = len(workloads.generate("battery", workloads.DEFAULT_SEED, str(tmp_path)))
    assert run.load_pinned("battery", workloads.DEFAULT_SEED, ops, workloads.DEFAULT_SEED) is not None
    with pytest.raises(RuntimeError, match="re-pin"):
        run.load_pinned("battery", workloads.DEFAULT_SEED, ops, workloads.DEFAULT_SEED + 1)


def test_latencies_and_span_times_are_divided_by_the_speed_factor(monkeypatch):
    monkeypatch.setattr(run.reference, "measure_speed", lambda count: 2.0)
    tracer = tracing.Tracer()
    runner = run.Runner(CLI, [QUBIT], None)
    tracer.install()
    try:
        runner.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    assert runner.records[0].latencies == [runner.pass_measured_s[0] / 2.0]
    raw = tracer.snapshot()
    assert runner.layers["cli.main.busy_s"] == pytest.approx(raw["cli.main.busy_s"] / 2.0)
    assert runner.layers["rng.philox_generator.calls"] == raw["rng.philox_generator.calls"] == 301


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_result_line_reports_every_metric(trace, names, monkeypatch, capsys):
    small = [QUBIT, workloads.Op(["boxes", "--boxes", "6", "--ball", "4"], "boxes")]
    monkeypatch.setitem(workloads.GENERATORS, "battery", lambda seed, workdir: list(small))
    assert run.main(["--workload", "battery", "--seed", "99", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_tracer_wraps_every_binding_and_restores():
    import orderctx
    from orderctx import experiments, measures, rng

    original = rng.philox_generator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (rng, experiments, measures, CLI, orderctx):
            assert mod.philox_generator is not original
        code, _, _, _ = run.invoke(CLI, ["qubit", "--axes", "x", "y", "--trials", "10"])
    finally:
        tracer.uninstall()
    assert code == 0
    for mod in (rng, experiments, measures, CLI, orderctx):
        assert mod.philox_generator is original
    snap = tracer.snapshot()
    assert snap["rng.philox_generator.calls"] == 11  # ten trials plus the sample trace
    assert snap["experiments.qubit_experiment.trials"] == 10
    for name in ("cli.main", "cli.handler", "experiments.qubit_experiment", "qubit.run_sequence"):
        assert 0.0 <= snap[f"{name}.self_s"] <= snap[f"{name}.busy_s"]
