"""Correctness checks for benchmark ops, independent of the library.

Every expected value here is recomputed from the op's argv and input data
with plain Python and numpy: Bloch vectors from axis tokens, binary entropy
from the half-angle law, transitive closure of cover pairs, remaining support
of a box search.  Nothing is imported from `orderctx` or its test oracles.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List, Optional, Tuple

import numpy as np

TOL = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def payload_digest(doc: dict) -> str:
    """Digest of a document's payload, serialised as acceptance criterion 9 does."""
    return digest(json.dumps(doc["payload"], sort_keys=True).encode())


_DURATION_KEY = '\n  "duration_seconds": '


def text_digest(text: str) -> str:
    """Digest of a CLI output with the wall-clock duration line cut out."""
    start = text.find(_DURATION_KEY)
    if start >= 0:
        end = text.index("\n", start + 1)
        text = text[:start] + text[end:]
    return hashlib.sha256(text.encode()).hexdigest()


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def binary_entropy(p: float) -> float:
    p = min(1.0, max(0.0, p))
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def entropy(row) -> float:
    return -sum(float(q) * math.log2(float(q)) for q in row if q > 0.0)


_NAMED = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def axis_vector(token: str) -> Tuple[float, float, float]:
    if token in _NAMED:
        return _NAMED[token]
    parts = [float(v) for v in token.split(",")]
    theta, phi = parts[0], parts[1] if len(parts) > 1 else 0.0
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def state_vector(token: str) -> Tuple[float, float, float]:
    sign = -1.0 if token.endswith("-") else 1.0
    v = axis_vector(token.rstrip("+-"))
    return tuple(sign * c for c in v)


def _cos(u, v) -> float:
    return max(-1.0, min(1.0, sum(a * b for a, b in zip(u, v))))


def _flag(argv: List[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# -- per-subcommand checks ----------------------------------------------------


def check_qubit(op, doc) -> None:
    argv = op.argv
    axes = argv[argv.index("--axes") + 1: argv.index("--trials")]
    trials = int(_flag(argv, "--trials"))
    p = doc["payload"]
    _require(p["trials"] == trials, "trial count echoed")
    freqs = p["empirical_frequencies"]
    _require(len(freqs) == len(axes), "one frequency pair per axis")
    for plus, minus in freqs:
        _require(plus + minus == trials, "plus and minus counts sum to the trial count")
    prev = state_vector(_flag(argv, "--input", "z+"))
    entropies = p["per_step_entropy_bits"]
    _require(len(entropies) == len(axes), "one entropy per axis")
    for k, token in enumerate(axes):
        a = axis_vector(token)
        want = binary_entropy((1.0 + _cos(prev, a)) / 2.0)
        _require(_close(entropies[k], want), f"step {k + 1} entropy {entropies[k]!r} != H((1+cos)/2) = {want!r}")
        prev = a
    repeats = any(axes[k] == axes[k + 1] for k in range(len(axes) - 1))
    if repeats:
        _require(p["repeat_probability"] == 1.0, "same-axis repeat probability is 1.0")
    else:
        _require(p["repeat_probability"] is None, "no repeat probability without a repeated axis")
    if len(axes) == 2 and axes[0] == axes[1]:
        _require(p["fixed_basis_repeat"] == 1.0, "fixed-basis repeat is 1.0")
    _require(len(p["sample_trace"]) == len(axes), "sample trace covers every axis")


def _closure(elements: List[str], covers) -> List[List[bool]]:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[index[lo]][index[hi]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def check_poset(op, doc) -> None:
    elements = op.info["elements"]
    leq = _closure(elements, op.info["covers"])
    n = len(elements)
    p = doc["payload"]
    _require(p["elements"] == elements, "elements echoed in file order")
    order_pairs = {(elements[i], elements[j]) for i in range(n) for j in range(n) if leq[i][j]}
    _require({tuple(pair) for pair in p["way_below"]} == order_pairs,
             "way-below pairs equal the transitive closure of the covers")
    _require(len(p["way_below"]) == len(order_pairs), "no duplicate way-below pairs")
    _require(p["compact_elements"] == sorted(elements), "every element is compact")
    _require(p["is_dcpo"] is True and p["dcpo_witness"] is None, "the poset is a dcpo")
    _require(p["context_transitivity_holds"] is True, "context transitivity holds")
    maximal = sorted(elements[i] for i in range(n) if not any(leq[i][j] for j in range(n) if j != i))
    _require(p["maximal_elements"] == maximal, "maximal elements")
    covers = {
        (elements[i], elements[j])
        for i in range(n) for j in range(n)
        if i != j and leq[i][j] and not any(leq[i][k] and leq[k][j] for k in range(n) if k not in (i, j))
    }
    _require({tuple(pair) for pair in p["covers"]} == covers, "Hasse covers")


def _search_steps(argv) -> Tuple[int, int, List[int]]:
    n = int(_flag(argv, "--boxes"))
    ball = int(_flag(argv, "--ball"))
    order_arg = _flag(argv, "--order")
    order = [int(t) for t in order_arg.split(",")] if order_arg else list(range(n))
    return n, ball, order


def _expected_trace(n: int, ball: int, order: List[int]):
    """(box, found, remaining support) per opened box."""
    steps = []
    remaining = n
    for box in order:
        if remaining == 1:
            break
        if box == ball:
            steps.append((box, True, 1))
            break
        remaining -= 1
        steps.append((box, False, remaining))
    return steps


def check_boxes(op, doc, order_leq=None) -> None:
    n, ball, order = _search_steps(op.argv)
    expected = _expected_trace(n, ball, order)
    p = doc["payload"]
    _require(p["n_boxes"] == n and p["ball_index"] == ball, "config echoed")
    steps = p["steps"]
    _require(len(steps) == len(expected), f"{len(steps)} steps, expected {len(expected)}")
    _require(_close(p["entropies"][0], math.log2(n)), "initial entropy is log2 n")
    _require(np.allclose(p["initial_state"], 1.0 / n, rtol=0, atol=1e-15), "initial state is uniform")
    for k, (step, (box, found, remaining)) in enumerate(zip(steps, expected), start=1):
        _require(step["step"] == k and step["box"] == box, f"step {k} opens box {box}")
        _require(step["outcome"] == ("found" if found else "empty"), f"step {k} outcome")
        want = math.log2(remaining)
        _require(_close(step["entropy_bits"], want), f"step {k} entropy is log2 of the remaining support")
        _require(_close(p["entropies"][k], want), f"entropy column entry {k}")
        state = np.asarray(step["state"])
        support = state[state > 0.0]
        _require(support.size == remaining and abs(support.sum() - 1.0) <= TOL
                 and support.max() - support.min() <= 1e-15, f"step {k} state is uniform on its support")
    _require(p["entropies"][-1] == 0.0, "last entropy is 0")
    if order_leq is not None:
        states = [p["initial_state"]] + [step["state"] for step in steps]
        for k in range(len(steps)):
            _require(order_leq(states[k], states[k + 1]), f"step {k + 1} climbs the information order")
    v = p["verdict"]
    _require(v["physically_deterministic"] is True and v["steps_to_certainty"] == len(steps),
             "verdict is deterministic at the last step")


def check_boxes_csv(op, text: str) -> None:
    n, ball, order = _search_steps(op.argv)
    expected = _expected_trace(n, ball, order)
    rows = [line.split(",") for line in text.split("\r\n") if line]
    _require(rows[0] == ["step", "box_or_axis", "outcome", "entropy_bits", "state_components"], "CSV header")
    _require(len(rows) == len(expected) + 2, "one CSV row per step plus the initial state")
    _require(_close(float(rows[1][3]), math.log2(n)), "initial entropy is log2 n")
    for k, (row, (box, found, remaining)) in enumerate(zip(rows[2:], expected), start=1):
        _require(row[0] == str(k) and row[1] == str(box), f"row {k} opens box {box}")
        _require(row[2] == ("found" if found else "empty"), f"row {k} outcome")
        _require(_close(float(row[3]), math.log2(remaining)), f"row {k} entropy is log2 of the remaining support")
    _require(rows[-1][3] == "0", "last entropy is 0")


def check_axioms(op, doc) -> None:
    p = doc["payload"]
    shannon = p["measures"][0]
    _require(shannon["measure"] == "shannon", "Shannon is the first measure")
    _require(all(a["passed"] for a in shannon["axioms"].values()) and len(shannon["axioms"]) == 6,
             "Shannon passes every axiom")
    _require(p["shannon_all_passed"] is True, "shannon_all_passed")


def check_sweep(op, doc) -> None:
    argv = op.argv
    start, stop, points = float(_flag(argv, "--start")), float(_flag(argv, "--stop")), int(_flag(argv, "--points"))
    p = doc["payload"]
    thetas, values = p["theta_radians"], p["value_bits"]
    _require(len(thetas) == points == len(values), "one value per grid point")
    for k, (t, v) in enumerate(zip(thetas, values)):
        _require(_close(t, start + (stop - start) * k / (points - 1), 1e-12), f"grid point {k}")
        _require(_close(v, binary_entropy((1.0 + math.cos(t)) / 2.0)), f"value at grid point {k}")
    if 0.0 <= start < stop <= math.pi / 2:
        _require(all(a < b for a, b in zip(values, values[1:])), "sweep increases strictly on [0, pi/2]")


def _basis_columns(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        cols = json.load(fh)["columns"]
    return np.array([[complex(re, im) for re, im in col] for col in cols]).T


def check_context(op, doc) -> None:
    a, b = op.argv[1], op.argv[2]
    if op.info:
        ma, mb = _basis_columns(op.info["a"]), _basis_columns(op.info["b"])
        t = np.abs(ma.conj().T @ mb) ** 2
    else:
        q = (1.0 + _cos(axis_vector(a), axis_vector(b))) / 2.0
        t = [[q, 1.0 - q], [1.0 - q, q]]
    n = len(t)
    value = sum(entropy(row) for row in t) / n
    sup = math.log2(n)
    p = doc["payload"]
    _require(_close(p["value_bits"], value), f"distance {p['value_bits']!r} != mean row entropy {value!r}")
    _require(_close(p["sup_bits"], sup, 1e-12), "ceiling is log2 n")
    _require(_close(p["normalized"], value / sup), "normalized distance")
    if value <= TOL:
        want = "IdenticalContext"
    elif abs(value - sup) <= TOL:
        want = "OrthogonalBases"
    else:
        want = "PartialContext"
    _require(p["classification"] == want, f"classification {p['classification']} != {want}")


_JSON_CHECKS = {
    "qubit": check_qubit,
    "poset": check_poset,
    "axioms": check_axioms,
    "sweep": check_sweep,
    "context": check_context,
}


def check_op(op, code: Optional[int], out: str, err: str, order_leq=None) -> Tuple[Optional[str], Optional[str]]:
    """Judge one invocation: (failure reason or None, pinned-form digest or None).

    The digest is of the payload for JSON output and of the whole text for
    CSV output; a refused op (expected exit 4) has none.  `order_leq(lo, hi)`,
    when given, must hold between consecutive states of a box search: it is
    the one check that calls into the library (its information order), so
    the benchmark records that relation's cost as a library-use baseline.
    """
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {err.strip()[:200]}", None
    if op.expect_exit != 0:
        if out or not err.startswith("error:"):
            return "a refused op must print only an error line", None
        return None, None
    try:
        if op.is_csv:
            _require(op.kind == "boxes", "only boxes ops use CSV")
            check_boxes_csv(op, out)
            return None, digest(out.encode())
        doc = json.loads(out)
        _require(doc.get("command") == op.kind, "document names its subcommand")
        if op.kind == "boxes":
            check_boxes(op, doc, order_leq)
        else:
            _JSON_CHECKS[op.kind](op, doc)
        return None, payload_digest(doc)
    except (CheckFailed, AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"[:300], None
