import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import orderctx
import orderctx.cli as cli
from orderctx import BlochAxis, NBasis
from orderctx.cli import (
    axis_label,
    load_basis,
    main,
    parse_axis_token,
    parse_basis_arg,
    parse_state_token,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_poset(tmp_path, name="poset.json", elements=None, covers=None):
    doc = {
        "elements": elements if elements is not None else ["bottom", "left", "right", "top"],
        "covers": covers
        if covers is not None
        else [["bottom", "left"], ["bottom", "right"], ["left", "top"], ["right", "top"]],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestTokenParsing:
    def test_named_axes(self):
        assert parse_axis_token("z") == BlochAxis.named("z")
        assert parse_axis_token(" y ") == BlochAxis.named("y")

    def test_angle_pairs(self):
        assert parse_axis_token("1.5,0.25") == BlochAxis(1.5, 0.25)
        assert parse_axis_token("1.5") == BlochAxis(1.5)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_axis_token("north")
        with pytest.raises(ValueError):
            parse_axis_token("1,2,3")

    def test_state_signs(self):
        z = BlochAxis.named("z")
        assert parse_state_token("z+") == z.plus_state()
        assert parse_state_token("z-") == z.minus_state()
        assert parse_state_token("z") == z.plus_state()
        assert parse_state_token("1.5,0.25-") == BlochAxis(1.5, 0.25).minus_state()

    def test_bare_minus_is_rejected(self):
        with pytest.raises(ValueError):
            parse_state_token("-")

    def test_axis_labels_round_trip(self):
        assert axis_label(BlochAxis.named("x")) == "x"
        label = axis_label(BlochAxis(1.5, 0.25))
        assert parse_axis_token(label) == BlochAxis(1.5, 0.25)


class TestBasisFiles:
    def test_load_and_dispatch(self, tmp_path):
        path = tmp_path / "fourier2.json"
        s = 1.0 / math.sqrt(2.0)
        path.write_text(
            json.dumps({"columns": [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]}),
            encoding="utf-8",
        )
        b = load_basis(str(path))
        assert b.dim == 2
        assert isinstance(parse_basis_arg("@" + str(path)), NBasis)
        assert isinstance(parse_basis_arg(str(path)), NBasis)
        assert parse_basis_arg("z") == BlochAxis.named("z")

    def test_missing_columns_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_basis(str(path))

    @pytest.mark.parametrize(
        "doc",
        [
            {"columns": 3},
            {"columns": [3]},
            {"columns": [[1]]},
            {"columns": [["ab", "cd"]]},
            {"columns": [[[1.0, 0.0, 0.0]]]},
            {"columns": [[[True, False]]]},
            {"columns": [[[10**400, 0.0]]]},  # too large for a float
        ],
    )
    def test_malformed_columns_are_input_errors(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError):
            load_basis(str(path))
        assert main(["context", "@" + str(path), "z"]) == 3
        assert capsys.readouterr().err.startswith("error:")


class TestAxiomsCommand:
    def test_document_shape(self, capsys):
        code, doc = run_json(capsys, ["axioms", "--samples", "60", "--seed", "4"])
        assert code == 0
        assert doc["command"] == "axioms"
        assert doc["version"] == orderctx.__version__
        assert doc["config"]["samples"] == 60
        assert doc["config"]["seed"] == 4
        assert "duration_seconds" in doc
        assert doc["payload"]["shannon_all_passed"] is True
        assert len(doc["payload"]["measures"]) == 3
        for entry in doc["payload"]["measures"]:
            assert entry["all_passed"] is True

    def test_csv_shape(self, capsys):
        code = main(["axioms", "--samples", "40", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "measure,axiom,passed"
        assert len(lines) == 1 + 3 * 6 + 1  # header, 6 axioms x 3 measures, trailing
        assert all(line.endswith("true") for line in lines[1:-1])

    def test_shannon_failure_sets_exit_one(self, capsys, monkeypatch):
        real = cli.verify_axioms

        def sabotaged(measure, samples, seed):
            report = real(measure, samples, seed)
            if measure is cli.SHANNON:
                report.normalization = type(report.symmetry)(False, 2.0)
            return report

        monkeypatch.setattr(cli, "verify_axioms", sabotaged)
        code, doc = run_json(capsys, ["axioms", "--samples", "10"])
        assert code == 1
        assert doc["payload"]["shannon_all_passed"] is False
        assert doc["payload"]["measures"][0]["axioms"]["normalization"]["witness"] == "2.0"


class TestPosetCommand:
    def test_analyzes_diamond(self, capsys, tmp_path):
        code, doc = run_json(capsys, ["poset", write_poset(tmp_path)])
        assert code == 0
        payload = doc["payload"]
        assert payload["is_dcpo"] is True
        assert payload["maximal_elements"] == ["top"]
        assert payload["context_transitivity_holds"] is True
        assert sorted(payload["elements"]) == ["bottom", "left", "right", "top"]
        assert ["bottom", "left"] in payload["way_below"]

    def test_writes_dot_file(self, capsys, tmp_path):
        dot = tmp_path / "hasse.dot"
        code = main(["poset", write_poset(tmp_path), "--dot", str(dot)])
        capsys.readouterr()
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph hasse")
        assert '"bottom" -> "left"' in text
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code = main(["poset", str(tmp_path / "nope.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["poset", str(path)]) == 3
        capsys.readouterr()

    def test_cyclic_poset_is_input_error(self, capsys, tmp_path):
        path = write_poset(
            tmp_path, "cycle.json", elements=["a", "b"], covers=[["a", "b"], ["b", "a"]]
        )
        assert main(["poset", path]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            {"elements": ["a"], "covers": 3},
            {"elements": ["a"], "covers": [5]},
            {"elements": "abc", "covers": [["a", "b"]]},
        ],
    )
    def test_badly_typed_document_is_input_error(self, capsys, tmp_path, doc):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["poset", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_oversized_poset_is_refused(self, capsys, tmp_path):
        elements = [f"e{k}" for k in range(16)]
        covers = [[f"e{k}", f"e{k + 1}"] for k in range(15)]
        path = write_poset(tmp_path, "chain16.json", elements=elements, covers=covers)
        assert main(["poset", path]) == 4
        assert "error:" in capsys.readouterr().err

    def test_csv_rows(self, capsys, tmp_path):
        code = main(["poset", write_poset(tmp_path), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("key,value\r\n")
        assert "is_dcpo,true\r\n" in out
        assert "maximal_elements,top\r\n" in out


class TestContextCommand:
    def test_orthogonal_axes(self, capsys):
        code, doc = run_json(capsys, ["context", "z", "x"])
        assert code == 0
        assert doc["payload"]["value_bits"] == 1.0
        assert doc["payload"]["classification"] == "OrthogonalBases"

    def test_identical_axes(self, capsys):
        code, doc = run_json(capsys, ["context", "z", "z"])
        assert code == 0
        assert doc["payload"]["value_bits"] == 0.0
        assert doc["payload"]["classification"] == "IdenticalContext"

    def test_partial_angle_pair(self, capsys):
        code, doc = run_json(capsys, ["context", "0", str(math.pi / 3)])
        assert code == 0
        assert doc["payload"]["value_bits"] == pytest.approx(0.8112781244591328, abs=1e-12)
        assert doc["payload"]["classification"] == "PartialContext"

    def test_basis_file_argument(self, capsys, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        path = tmp_path / "fourier2.json"
        path.write_text(
            json.dumps({"columns": [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]}),
            encoding="utf-8",
        )
        code, doc = run_json(capsys, ["context", "@" + str(path), "z"])
        assert code == 0
        assert doc["payload"]["value_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_non_orthonormal_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(
            json.dumps({"columns": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}),
            encoding="utf-8",
        )
        assert main(["context", "@" + str(path), "z"]) == 3
        capsys.readouterr()

    def test_csv_rows(self, capsys):
        code = main(["context", "z", "x", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("key,value\r\n")
        assert "value_bits,1\r\n" in out
        assert "classification,OrthogonalBases\r\n" in out


class TestSweepCommand:
    def test_grid_and_endpoints(self, capsys):
        code, doc = run_json(capsys, ["sweep", "--points", "5"])
        assert code == 0
        thetas = doc["payload"]["theta_radians"]
        values = doc["payload"]["value_bits"]
        assert len(thetas) == len(values) == 5
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi / 2, abs=1e-15)
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_too_few_points_is_input_error(self, capsys):
        assert main(["sweep", "--points", "1"]) == 3
        capsys.readouterr()

    def test_csv_uses_twelve_significant_digits(self, capsys):
        code = main(["sweep", "--points", "3", "--stop", str(math.pi / 2), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "theta_radians,value_bits"
        assert lines[1] == "0,0"
        theta_cell, value_cell = lines[2].split(",")
        assert theta_cell == "%.12g" % (math.pi / 4)
        assert value_cell == "%.12g" % 0.6008760366928562
        assert lines[3] == "%.12g" % (math.pi / 2) + ",1"


class TestBoxesCommand:
    def test_default_run(self, capsys):
        code, doc = run_json(capsys, ["boxes"])
        assert code == 0
        payload = doc["payload"]
        assert payload["n_boxes"] == 3
        assert payload["ball_index"] == 0
        assert payload["steps"][0]["outcome"] == "found"
        assert payload["verdict"]["physically_deterministic"] is True

    def test_inference_without_opening(self, capsys):
        code, doc = run_json(capsys, ["boxes", "--boxes", "4", "--ball", "3"])
        assert code == 0
        payload = doc["payload"]
        assert [s["box"] for s in payload["steps"]] == [0, 1, 2]
        assert payload["entropies"] == [2.0, math.log2(3), 1.0, 0.0]
        assert payload["verdict"]["steps_to_certainty"] == 3

    def test_custom_order(self, capsys):
        code, doc = run_json(capsys, ["boxes", "--order", "2,1,0", "--ball", "1"])
        assert code == 0
        assert [s["box"] for s in doc["payload"]["steps"]] == [2, 1]

    def test_bad_order_is_input_error(self, capsys):
        assert main(["boxes", "--order", "0,0,1"]) == 3
        capsys.readouterr()

    def test_bad_ball_is_input_error(self, capsys):
        assert main(["boxes", "--ball", "7"]) == 3
        capsys.readouterr()

    def test_csv_trace(self, capsys):
        code = main(["boxes", "--boxes", "3", "--ball", "2", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "step,box_or_axis,outcome,entropy_bits,state_components"
        assert lines[1].startswith("0,,,")
        assert lines[2] == "1,0,empty,1,0;0.5;0.5"
        assert lines[3] == "2,1,empty,0,0;0;1"


class TestQubitCommand:
    def test_repeat_pair_reports_structural_certainty(self, capsys):
        code, doc = run_json(capsys, ["qubit", "--axes", "x", "x", "--trials", "200"])
        assert code == 0
        payload = doc["payload"]
        assert payload["per_step_entropy_bits"] == [1.0, 0.0]
        assert payload["repeat_probability"] == 1.0
        assert payload["fixed_basis_repeat"] == 1.0
        assert payload["verdict"]["physically_deterministic"] is True
        assert payload["verdict"]["steps_to_certainty"] == 1

    def test_switching_axes(self, capsys):
        code, doc = run_json(capsys, ["qubit", "--axes", "x", "y", "--trials", "100"])
        assert code == 0
        payload = doc["payload"]
        assert payload["per_step_entropy_bits"] == [1.0, 1.0]
        assert payload["fixed_basis_repeat"] is None
        assert payload["repeat_probability"] is None
        assert payload["verdict"]["physically_deterministic"] is False
        assert payload["distinct_maximal_states"] == 4
        assert len(payload["sample_trace"]) == 2

    def test_custom_input_state(self, capsys):
        code, doc = run_json(capsys, ["qubit", "--input", "x-", "--axes", "x", "--trials", "50"])
        assert code == 0
        payload = doc["payload"]
        assert payload["per_step_entropy_bits"] == [0.0]
        assert payload["empirical_frequencies"] == [[0, 50]]

    def test_bad_axis_token_is_input_error(self, capsys):
        assert main(["qubit", "--axes", "q"]) == 3
        capsys.readouterr()

    def test_csv_trace(self, capsys):
        code = main(["qubit", "--axes", "x", "x", "--trials", "20", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "step,box_or_axis,outcome,entropy_bits,state_components"
        assert lines[1].split(",")[1] == "x"
        assert lines[2].split(",")[3] == "0"


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["context", "z", "1.0", "--tolerance"],
            ["boxes", "--boxes", "4", "--epsilon"],
            ["qubit", "--trials", "10", "--axes", "x", "z", "--epsilon"],
        ],
        ids=["context-tolerance", "boxes-epsilon", "qubit-epsilon"],
    )
    def test_rejected_as_input_errors(self, capsys, argv, value):
        *head, flag = argv
        assert main([*head, f"{flag}={value}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestPlumbing:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["qubit"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert orderctx.__version__ in capsys.readouterr().out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code = main(["context", "z", "x", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert target.read_text(encoding="utf-8") == out
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "result.json"
        code = main(["context", "z", "x", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not target.exists()

    def test_payloads_reproduce_across_runs(self, capsys):
        cases = [
            ["axioms", "--samples", "50"],
            ["sweep", "--points", "7"],
            ["boxes", "--boxes", "5", "--ball", "4"],
            ["qubit", "--axes", "x", "y", "x", "--trials", "60"],
        ]
        for argv in cases:
            _, first = run_json(capsys, argv)
            _, second = run_json(capsys, argv)
            a = json.dumps(first["payload"], sort_keys=True)
            b = json.dumps(second["payload"], sort_keys=True)
            assert a == b, argv

    def test_config_echoes_flags_not_plumbing(self, capsys):
        _, doc = run_json(capsys, ["sweep", "--points", "3", "--seed", "9"])
        assert doc["config"]["points"] == 3
        assert doc["config"]["seed"] == 9
        assert "handler" not in doc["config"]
        assert "out" not in doc["config"]
        assert "format" not in doc["config"]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orderctx.cli", "context", "z", "x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["value_bits"] == 1.0


def json_oracle(text):
    """The stdlib's own rendering of the same document: the layout contract."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestJsonLayout:
    ORDER_12 = ",".join(str((5 * k) % 12) for k in range(12))

    @pytest.mark.parametrize(
        "argv",
        [
            ["axioms", "--samples", "30"],
            ["context", "z", "x"],
            ["context", "0", "0.7"],
            ["sweep", "--points", "6"],
            ["boxes", "--boxes", "7", "--ball", "5"],
            ["boxes", "--boxes", "12", "--ball", "9", "--order", ORDER_12],
            ["qubit", "--axes", "x", "x", "--trials", "40"],
            ["qubit", "--input", "1.1,0.4-", "--axes", "z", "0.3,2.0", "y", "--trials", "30"],
        ],
    )
    def test_document_is_stdlib_layout(self, capsys, argv):
        main(argv)
        text = capsys.readouterr().out
        assert text == json_oracle(text)

    def test_poset_labels_with_escapes(self, capsys, tmp_path):
        labels = ["böttöm", 'q"uote', "back\\slash", "日本", "tab\there"]
        covers = [[labels[0], labels[k]] for k in (1, 2, 3)] + [[labels[k], labels[4]] for k in (1, 2, 3)]
        main(["poset", write_poset(tmp_path, elements=labels, covers=covers)])
        text = capsys.readouterr().out
        assert text == json_oracle(text)
        assert text.isascii()
        assert json.loads(text)["payload"]["elements"] == labels

    def test_boxes_csv_is_pinned(self, capsys):
        order = ",".join(str((7 * k) % 60) for k in range(60))
        assert main(["boxes", "--boxes", "60", "--ball", "41", "--order", order, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("\r\n") == 26
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "b5c8e52aec674e9e5d134450b2563856be2a62d9093f83a17df98b43f26bb440"


class TestResultWriter:
    def stdlib(self, obj):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            -0.0,
            5e-324,
            1e16,
            [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 2.0 / 3.0],
            {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
            [],
            {},
            [[], {}, [[]], {"a": {}}],
            {"b": [1, True, None, "x"], "a": False, "c": {"z": 1.5, "y": [-3]}},
            "pläin \"quoted\" \\ \n☃",
        ],
    )
    def test_matches_stdlib(self, obj):
        assert cli._render_json(obj) == self.stdlib(obj)

    def test_float_vector(self):
        values = [0.25, -0.0, 0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf"), 0.25, -0.0, 1 / 3]
        arr = np.array(values)
        doc = {"v": arr, "nested": [arr, {"w": arr[:3]}]}
        expected = {"v": values, "nested": [values, {"w": values[:3]}]}
        assert cli._render_json(doc) == self.stdlib(expected)

    def test_empty_and_read_only_vectors(self):
        empty = np.zeros(0)
        frozen = np.array([0.5, 0.5])
        frozen.setflags(write=False)
        doc = {"empty": empty, "frozen": frozen}
        assert cli._render_json(doc) == self.stdlib({"empty": [], "frozen": [0.5, 0.5]})

    def test_other_arrays_render_as_lists(self):
        doc = [np.array([[1.0, -0.0], [2.5, 1e16]]), np.array([3, 4]), np.array([True, False])]
        expected = [[[1.0, -0.0], [2.5, 1e16]], [3, 4], [True, False]]
        assert cli._render_json(doc) == self.stdlib(expected)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            cli._render_json({"x": object()})

    def test_state_cell_keeps_signed_zero(self):
        assert cli._state_cell(np.array([0.0, -0.0, 0.5, 1 / 3, 0.5])) == "0;-0;0.5;0.333333333333;0.5"
        assert cli._state_cell(np.zeros(0)) == ""
