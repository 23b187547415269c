"""Command-line front end.

Every subcommand emits a result document: the echoed configuration, the tool
version, a payload, and the wall-clock duration.  Payloads are a pure
function of the configuration (seeds included), so two runs with the same
flags agree byte for byte once the duration field is set aside.  A JSON
document is laid out exactly as `json.dumps(doc, indent=2, sort_keys=True)`
would lay it out (see `_render_json`).  Exit codes:
0 success, 1 failed verification, 2 bad flags, 3 bad input, 4 refused
enumeration size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .context import contextual_distance, qubit_distance_curve
from .errors import OrderContextError, SizeLimitError
from .experiments import (
    DEFAULT_EPSILON,
    boxes_experiment,
    determinism_check,
    qubit_experiment,
)
from .measures import HARTLEY, SHANNON, AxiomReport, linear_combo, verify_axioms
from .poset import load_poset
from .qubit import BlochAxis, NBasis, run_sequence
from .rng import philox_generator

_AXIOM_NAMES = (
    "expansibility",
    "symmetry",
    "subadditivity",
    "additivity",
    "normalization",
    "monotone_on_order",
)


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def parse_axis_token(token: str) -> BlochAxis:
    """Axis from `z`/`x`/`y` or `theta,phi` (radians); bare theta means phi=0."""
    t = token.strip()
    if t in ("z", "x", "y"):
        return BlochAxis.named(t)
    parts = t.split(",")
    if len(parts) > 2:
        raise ValueError(f"axis token {token!r} has more than two angles")
    try:
        theta = float(parts[0])
        phi = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ValueError(f"cannot parse axis token {token!r}") from None
    return BlochAxis(theta, phi)


def parse_state_token(token: str):
    """State from an axis token with optional trailing sign, e.g. `z+` or `x-`."""
    t = token.strip()
    sign = 1
    if t.endswith("+"):
        t = t[:-1]
    elif t.endswith("-") and t not in ("z", "x", "y"):
        # a trailing `-` only counts as a sign if what precedes parses on its own
        head = t[:-1]
        try:
            parse_axis_token(head)
        except (ValueError, OrderContextError):
            pass
        else:
            sign, t = -1, head
    axis = parse_axis_token(t)
    return axis.plus_state() if sign == 1 else axis.minus_state()


def axis_label(axis: BlochAxis) -> str:
    for name in ("z", "x", "y"):
        if axis == BlochAxis.named(name):
            return name
    return f"{_fmt(axis.theta)},{_fmt(axis.phi)}"


def load_basis(path: str) -> NBasis:
    """Basis file: JSON with `columns`, each a list of [re, im] pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "columns" not in doc:
        raise ValueError("basis document needs a `columns` field")
    columns = doc["columns"]
    if not isinstance(columns, list) or not all(isinstance(col, list) for col in columns):
        raise ValueError("`columns` must be an array of arrays")
    return NBasis(np.array([[_basis_entry(entry) for entry in col] for col in columns], dtype=complex).T)


def _basis_entry(entry) -> complex:
    if not (isinstance(entry, list) and len(entry) == 2 and all(type(v) in (int, float) for v in entry)):
        raise ValueError(f"basis entry {entry!r} is not a [re, im] pair of numbers")
    try:
        return complex(*entry)
    except OverflowError:
        raise ValueError(f"basis entry {entry!r} is too large for a float") from None


def parse_basis_arg(arg: str):
    """Either a qubit axis token or `@file.json` / existing path to a basis file."""
    if arg.startswith("@"):
        return load_basis(arg[1:])
    if os.path.exists(arg) and arg not in ("z", "x", "y"):
        return load_basis(arg)
    return parse_axis_token(arg)


# -- subcommand handlers -------------------------------------------------


def _axiom_entry(report: AxiomReport) -> dict:
    axioms = {}
    for name in _AXIOM_NAMES:
        check = getattr(report, name)
        entry = {"passed": bool(check.passed)}
        if not check.passed:
            entry["witness"] = repr(check.witness)
        axioms[name] = entry
    return {"measure": report.measure, "axioms": axioms, "all_passed": report.all_passed()}


def cmd_axioms(args) -> dict:
    measures = [SHANNON, HARTLEY, linear_combo(0.5, 0.5)]
    entries = [_axiom_entry(verify_axioms(m, args.samples, args.seed)) for m in measures]
    shannon_ok = entries[0]["all_passed"]
    rows = [("measure", "axiom", "passed")]
    for entry in entries:
        for name in _AXIOM_NAMES:
            rows.append((entry["measure"], name, str(entry["axioms"][name]["passed"]).lower()))
    return {
        "payload": {"measures": entries, "shannon_all_passed": shannon_ok},
        "rows": rows,
        "exit": 0 if shannon_ok else 1,
    }


def cmd_poset(args) -> dict:
    p = load_poset(args.file)
    report = p.analyze()
    wb = p.way_below_matrix()
    dcpo_ok, dcpo_witness = p.is_dcpo()
    payload = {
        "elements": list(p.elements),
        "covers": [list(pair) for pair in p.cover_pairs()],
        "maximal_elements": sorted(report.maximal_elements),
        "compact_elements": sorted(report.compact_elements),
        "way_below": [
            [p.elements[i], p.elements[j]] for i, j in np.argwhere(wb)
        ],
        "is_dcpo": dcpo_ok,
        "dcpo_witness": sorted(dcpo_witness) if dcpo_witness else None,
        "context_transitivity_holds": report.context_transitivity_holds,
        "counterexample": list(report.counterexample) if report.counterexample else None,
    }
    if args.dot:
        _atomic_write(args.dot, p.to_dot())
    rows = [("key", "value")]
    rows.append(("is_dcpo", str(dcpo_ok).lower()))
    rows.append(("context_transitivity_holds", str(report.context_transitivity_holds).lower()))
    rows.append(("maximal_elements", ";".join(sorted(report.maximal_elements))))
    rows.append(("compact_elements", ";".join(sorted(report.compact_elements))))
    return {"payload": payload, "rows": rows, "exit": 0}


def cmd_context(args) -> dict:
    a = parse_basis_arg(args.basis_a)
    b = parse_basis_arg(args.basis_b)
    report = contextual_distance(a, b, tol=args.tolerance)
    payload = {
        "value_bits": report.value_bits,
        "sup_bits": report.sup_bits,
        "classification": report.classification.value,
        "normalized": report.normalized,
    }
    rows = [("key", "value")] + [
        ("value_bits", _fmt(report.value_bits)),
        ("sup_bits", _fmt(report.sup_bits)),
        ("classification", report.classification.value),
        ("normalized", _fmt(report.normalized)),
    ]
    return {"payload": payload, "rows": rows, "exit": 0}


def cmd_sweep(args) -> dict:
    if args.points < 2:
        raise ValueError("sweep needs at least two grid points")
    thetas = [args.start + (args.stop - args.start) * k / (args.points - 1) for k in range(args.points)]
    values = qubit_distance_curve(thetas)
    payload = {"theta_radians": thetas, "value_bits": values}
    rows = [("theta_radians", "value_bits")] + [
        (_fmt(t), _fmt(v)) for t, v in zip(thetas, values)
    ]
    return {"payload": payload, "rows": rows, "exit": 0}


def cmd_boxes(args) -> dict:
    order = [int(tok) for tok in args.order.split(",")] if args.order else None
    trace = boxes_experiment(args.boxes, args.ball, order)
    verdict = determinism_check(trace, epsilon=args.epsilon)
    step_docs = [
        {
            "step": k,
            "box": step.box,
            "outcome": "found" if step.found else "empty",
            "entropy_bits": step.entropy_bits,
            "state": step.state.probs,
        }
        for k, step in enumerate(trace.steps, start=1)
    ]
    payload = {
        "n_boxes": trace.n_boxes,
        "ball_index": trace.ball_index,
        "opening_order": list(trace.opening_order),
        "initial_state": trace.initial_state.probs,
        "steps": step_docs,
        "entropies": trace.entropies,
        "verdict": _verdict_dict(verdict),
    }
    rows = None
    if args.format == "csv":
        rows = [
            ("step", "box_or_axis", "outcome", "entropy_bits", "state_components"),
            ("0", "", "", _fmt(trace.entropies[0]), _state_cell(trace.initial_state.probs)),
        ]
        rows += [
            (str(d["step"]), str(d["box"]), d["outcome"], _fmt(d["entropy_bits"]), _state_cell(d["state"]))
            for d in step_docs
        ]
    return {"payload": payload, "rows": rows, "exit": 0}


def cmd_qubit(args) -> dict:
    axes = [parse_axis_token(tok) for tok in args.axes]
    input_state = parse_state_token(args.input)
    aggregate = qubit_experiment(input_state, axes, args.trials, args.seed)
    same_axis_pair = len(axes) == 2 and axes[0] == axes[1]
    verdict = determinism_check(aggregate, epsilon=args.epsilon)
    sample = run_sequence(input_state, axes, philox_generator(args.seed, stream=0), seed=args.seed)
    rows = [("step", "box_or_axis", "outcome", "entropy_bits", "state_components")]
    for k, step in enumerate(sample.steps, start=1):
        rows.append(
            (
                str(k),
                axis_label(step.axis),
                "%+d" % step.outcome,
                _fmt(aggregate.per_step_entropy_bits[k - 1]),
                _state_cell(step.post_state.bloch),
            )
        )
    payload = {
        "input": args.input,
        "axes": [axis_label(a) for a in axes],
        "trials": aggregate.trials,
        "per_step_entropy_bits": aggregate.per_step_entropy_bits,
        "empirical_frequencies": [list(pair) for pair in aggregate.empirical_frequencies],
        "distinct_maximal_states": aggregate.distinct_maximal_states,
        "repeat_probability": aggregate.same_axis_repeat_probability,
        # a same-axis pair: the aggregate's repeat fraction is the fixed-basis one
        "fixed_basis_repeat": aggregate.same_axis_repeat_probability if same_axis_pair else None,
        "verdict": _verdict_dict(verdict),
        "sample_trace": [
            {
                "step": k,
                "axis": axis_label(step.axis),
                "outcome": step.outcome,
                "post_state": [float(v) for v in step.post_state.bloch],
            }
            for k, step in enumerate(sample.steps, start=1)
        ],
    }
    return {"payload": payload, "rows": rows, "exit": 0}


def _state_cell(components) -> str:
    return _join_distinct(components, _fmt, ";")


def _verdict_dict(verdict) -> dict:
    return {
        "physically_deterministic": verdict.physically_deterministic,
        "approximately_deterministic": verdict.approximately_deterministic,
        "steps_to_certainty": verdict.steps_to_certainty,
        "epsilon": verdict.epsilon,
    }


# -- plumbing -------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _float_text(x: float) -> str:
    """A float as `json.dumps` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _join_distinct(values: np.ndarray, fmt, sep: str) -> str:
    """`sep.join(fmt(v) for v in values)` for a float64 vector, calling `fmt`
    once per distinct value.  Values are told apart by their bits, so -0.0
    keeps its own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return sep.join(texts[inverse].tolist())


def _render_json(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True) + "\\n"`, byte for byte.

    Besides the json types (dict keys must be strings) it takes ndarrays,
    which render as the list of their values.  A float64 vector is rendered
    in one join over its distinct values, not element by element."""
    chunks: list = []
    _write_json(doc, chunks, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _write_json(obj, out: list, newline: str) -> None:
    """Append the chunks of `obj`; `newline` is "\\n" plus the indent of its line."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype != np.float64:
            _write_json(obj.tolist(), out, newline)
        elif obj.size == 0:
            out.append("[]")
        else:
            inner = newline + "  "
            out += ("[", inner, _join_distinct(obj, _float_text, "," + inner), newline, "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out += (newline, "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out += (newline, "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_csv(rows) -> str:
    return "".join(",".join(cell for cell in row) + "\r\n" for row in rows)


def _config_dict(args) -> dict:
    skip = {"handler", "out", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderctx",
        description="Information orders, entropy measures, and measurement contexts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="root random seed (default 42)")
    common.add_argument("--trials", type=int, default=1000, help="number of seeded trials")
    common.add_argument("--tolerance", type=float, default=1e-9, help="classification tolerance, bits")
    common.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="approximate-determinism threshold, bits")
    common.add_argument("--out", default=None, help="write the result document to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("axioms", parents=[common], help="run the axiom battery on the bundled measures")
    sp.add_argument("--samples", type=int, default=1000, help="samples per axiom")
    sp.set_defaults(handler=cmd_axioms)

    sp = sub.add_parser("poset", parents=[common], help="analyze a poset file (elements + covers)")
    sp.add_argument("file", help="JSON poset document")
    sp.add_argument("--dot", default=None, help="also write a Hasse diagram in DOT form")
    sp.set_defaults(handler=cmd_poset)

    sp = sub.add_parser("context", parents=[common], help="distance in bits between two bases")
    sp.add_argument("basis_a", help="axis token (z, x, y, theta,phi) or basis file")
    sp.add_argument("basis_b", help="axis token (z, x, y, theta,phi) or basis file")
    sp.set_defaults(handler=cmd_context)

    sp = sub.add_parser("sweep", parents=[common], help="distance curve over an angle grid")
    sp.add_argument("--start", type=float, default=0.0)
    sp.add_argument("--stop", type=float, default=math.pi / 2)
    sp.add_argument("--points", type=int, default=19)
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("boxes", parents=[common], help="ball-in-boxes search experiment")
    sp.add_argument("--boxes", type=int, default=3, help="number of boxes")
    sp.add_argument("--ball", type=int, default=0, help="box hiding the ball")
    sp.add_argument("--order", default=None, help="comma-separated opening order")
    sp.set_defaults(handler=cmd_boxes)

    sp = sub.add_parser("qubit", parents=[common], help="sequential spin measurements")
    sp.add_argument("--input", default="z+", help="input state token (default z+)")
    sp.add_argument("--axes", nargs="+", required=True, help="axis tokens, in measurement order")
    sp.set_defaults(handler=cmd_qubit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    started = time.perf_counter()
    try:
        result = args.handler(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OrderContextError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    duration = time.perf_counter() - started

    if args.format == "csv":
        text = _render_csv(result["rows"])
    else:
        document = {
            "command": args.command,
            "config": _config_dict(args),
            "version": __version__,
            "payload": result["payload"],
            "duration_seconds": duration,
        }
        text = _render_json(document)

    if args.out:
        try:
            _atomic_write(args.out, text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    sys.stdout.write(text)
    return result["exit"]


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
