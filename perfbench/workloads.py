"""Seeded operation lists for the four benchmark workloads.

Each workload is a list of `orderctx` CLI invocations (argv lists) plus the
input files they read.  The seed decides every value in them: angles, input
states, labels, poset edges, ball positions, opening orders and the order of
the ops in a pass.  The *sizes* of the ops (trial counts, element counts, box
counts, sample counts) follow a fixed schedule per workload, so that two seeds
ask for the same amount of work and a run-time figure moves with the program,
not with the draw.  Where a size would otherwise depend on a random position
(the number of boxes opened before the ball is found), the position is drawn
inside a fixed stratum.

Why these four workloads:

- spin: `qubit` runs, 1k-10k trials; nearly all time is per-trial Philox
  streams and `QuantumTrace` building (rng, qubit, experiments).
- domain: `poset` runs, n = 11-15 over four shapes plus refused n = 16 files;
  nearly all time is the 2^n subset enumeration (poset), no randomness.
- search: `boxes` runs, n = 200-2000; time is the O(n^2) per-step state lists
  and their JSON/CSV serialisation (experiments, states, measures on long
  vectors, cli).
- battery: a few `axioms` runs among hundreds of small `context`, `sweep`,
  `boxes` and `qubit` calls; the only place where `measures` and `states`
  run on short vectors and where fixed per-invocation cost sets the median.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

WORKLOADS = ("spin", "domain", "search", "battery")
DEFAULT_SEED = 1


@dataclass
class Op:
    """One CLI invocation and what the checks need to judge its output."""

    argv: List[str]
    kind: str  # subcommand name; selects the correctness check
    expect_exit: int = 0
    info: Dict = field(default_factory=dict)

    @property
    def is_csv(self) -> bool:
        return "--format" in self.argv and self.argv[self.argv.index("--format") + 1] == "csv"


def _rng(workload: str, seed: int) -> random.Random:
    # str seeding hashes with SHA-512, so it is stable across processes
    return random.Random(f"orderctx-bench:{workload}:{int(seed)}")


def _angle_token(r: random.Random) -> str:
    theta = r.uniform(0.05, math.pi - 0.05)
    phi = r.uniform(0.0, 2.0 * math.pi)
    return f"{theta:.6f},{phi:.6f}"


def _axis_token(r: random.Random) -> str:
    return r.choice(["x", "y", "z"]) if r.random() < 0.5 else _angle_token(r)


def _state_token(r: random.Random) -> str:
    sign = r.choice("+-")
    if r.random() < 0.5:
        return r.choice(["x", "y", "z"]) + sign
    return _angle_token(r) + sign


def _chain(r: random.Random, kind: str) -> List[str]:
    if kind == "single":
        return [r.choice(["x", "y", "z"])]
    if kind == "pair":  # same axis twice: also runs fixed_basis_repeat
        a = _axis_token(r)
        return [a, a]
    if kind == "zxzx":
        return ["z", "x", "z", "x"]
    if kind.startswith("random"):  # random2, random3: that many theta,phi axes
        return [_angle_token(r) for _ in range(int(kind[6:]))]
    if kind == "mixed":
        # no axis twice in a row: a repeat measures on the exact eigenstate
        # branch, which is cheaper, so repeats would make the cost seed-dependent
        chain = [_axis_token(r)]
        while len(chain) < 5:
            token = _axis_token(r)
            if token != chain[-1]:
                chain.append(token)
        return chain
    raise ValueError(kind)


def _qubit_op(r: random.Random, kind: str, trials: int, input_token: str) -> Op:
    argv = ["qubit", "--input", input_token, "--axes", *_chain(r, kind),
            "--trials", str(trials), "--seed", str(r.randrange(1 << 31))]
    return Op(argv, "qubit")


# (trials, chain kind) per op of one spin pass: many small runs, a few large
_SPIN_KINDS = ("single", "pair", "zxzx", "random2", "mixed", "single", "pair", "random3")
_SPIN_SCHEDULE = (
    [(1000, k) for k in _SPIN_KINDS] * 3
    + [(2000, k) for k in _SPIN_KINDS]
    + [(4000, k) for k in ("single", "pair", "random3", "mixed")]
    + [(6000, "single"), (6000, "zxzx"), (10000, "single"), (10000, "pair")]
)


def spin(seed: int, workdir: str) -> List[Op]:
    r = _rng("spin", seed)
    # inputs off every named axis, so that no op starts on an eigenstate of its
    # first axis (a cheaper branch) in some seeds and not in others
    ops = [_qubit_op(r, kind, trials, _angle_token(r) + r.choice("+-")) for trials, kind in _SPIN_SCHEDULE]
    r.shuffle(ops)
    return ops


# -- domain ------------------------------------------------------------------


def _labels(r: random.Random, n: int) -> List[str]:
    # a list, not a set: set order follows the per-process string hash seed
    names = []
    while len(names) < n:
        name = "".join(r.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
        if name not in names:
            names.append(name)
    return names


def _shape_covers(r: random.Random, shape: str, n: int) -> List[tuple]:
    """Cover pairs over element indices 0..n-1 for the named shape."""
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "antichain":
        return []
    if shape == "diamonds":
        # stacked diamonds share top/bottom; leftover elements extend the top as a chain
        k = (n - 1) // 3
        pairs = []
        for d in range(k):
            b, left, right, t = 3 * d, 3 * d + 1, 3 * d + 2, 3 * d + 3
            pairs += [(b, left), (b, right), (left, t), (right, t)]
        pairs += [(i, i + 1) for i in range(3 * k, n - 1)]
        return pairs
    if shape == "random":
        # random DAG along index order; transitive pairs may repeat, the CLI closes them
        p = 2.2 / n
        return [(i, j) for i in range(n) for j in range(i + 1, n) if r.random() < p]
    raise ValueError(shape)


def _poset_op(r: random.Random, shape: str, n: int, workdir: str, slot: int) -> Op:
    labels = _labels(r, n)
    covers = [[labels[i], labels[j]] for i, j in _shape_covers(r, shape, n)]
    r.shuffle(covers)
    elements = list(labels)
    r.shuffle(elements)
    doc = {"elements": elements, "covers": covers}
    path = os.path.join(workdir, f"poset{slot:02d}_{shape}_{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return Op(["poset", path], "poset", expect_exit=4 if n > 15 else 0,
              info={"shape": shape, "n": n, "elements": elements, "covers": covers})


_DOMAIN_SCHEDULE = (
    [(shape, n) for shape in ("chain", "antichain", "diamonds", "random") for n in range(11, 16)]
    + [("random", n) for n in (11, 12, 13, 11, 12, 13, 11, 12, 11, 12)]
    + [(shape, n) for shape in ("chain", "antichain", "diamonds") for n in (11, 12)]
    + [(shape, 16) for shape in ("chain", "antichain", "diamonds", "random")]
)


def domain(seed: int, workdir: str) -> List[Op]:
    r = _rng("domain", seed)
    ops = [_poset_op(r, shape, n, workdir, slot) for slot, (shape, n) in enumerate(_DOMAIN_SCHEDULE)]
    r.shuffle(ops)
    return ops


# -- search ------------------------------------------------------------------


def _boxes_op(r: random.Random, n: int, frac: float, with_order: bool, csv: bool) -> Op:
    """Boxes run whose ball sits at relative position `frac` of the opening order."""
    pos = min(n - 1, int(frac * n))
    argv = ["boxes", "--boxes", str(n)]
    if with_order:
        order = list(range(n))
        r.shuffle(order)
        ball = order[pos]
        argv += ["--order", ",".join(map(str, order))]
    else:
        ball = pos
    argv += ["--ball", str(ball)]
    if csv:
        argv += ["--format", "csv"]
    return Op(argv, "boxes")


# per size level: (n, number of ops); each level's ops spread the ball over
# equal strata of the opening order, alternate --order, and every third is CSV
_SEARCH_LEVELS = ((200, 16), (350, 8), (600, 6), (1000, 3), (1400, 2))


def search(seed: int, workdir: str) -> List[Op]:
    r = _rng("search", seed)
    ops = []
    slot = 0
    for n, count in _SEARCH_LEVELS:
        for k in range(count):
            # within 3% of the middle of stratum k, so that an op's work
            # (steps x n) and the order statistics of a pass barely move with the seed
            frac = (k + 0.5) / count * (1.0 + 0.06 * (r.random() - 0.5))
            ops.append(_boxes_op(r, n, frac, slot % 2 == 0, slot % 3 == 2))
            slot += 1
    r.shuffle(ops)
    # the largest document: ball last in a seeded order, so every run writes
    # the full n - 1 steps of n floats.  It goes first, so that the process
    # peaks (in its pass-0 checks) on a heap that no seed's op order has
    # fragmented yet: placed by the shuffle, peak_rss_mb read 690 MB for most
    # seeds and up to 720 MB for some.
    ops.insert(0, _boxes_op(r, 2000, 1.0, True, False))
    return ops


# -- battery -----------------------------------------------------------------


def _write_basis(path: str, columns: np.ndarray) -> None:
    cols = [[[float(z.real), float(z.imag)] for z in columns[:, j]] for j in range(columns.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": cols}, fh)


def _unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    m = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    q, rr = np.linalg.qr(m)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def battery(seed: int, workdir: str) -> List[Op]:
    r = _rng("battery", seed)
    gen = np.random.default_rng([int(seed) & 0xFFFFFFFF, 4])
    ops = [Op(["axioms", "--samples", str(s), "--seed", str(r.randrange(1 << 31))], "axioms")
           for s in (1000, 4000, 10000)]

    files = {dim: [os.path.join(workdir, f"basis{dim}_{k}.json") for k in range(4)] for dim in (2, 3, 4)}
    for dim, paths in files.items():
        for path in paths:
            _write_basis(path, _unitary(gen, dim))
    for i in range(120):
        if i % 3 == 0:
            a, b = _axis_token(r), _axis_token(r)
            info = {}
        else:
            same = files[(2, 3, 4)[(i // 3) % 3]]
            pa, pb = r.choice(same), r.choice(same)
            a, b = "@" + pa, pb  # both spellings of a file argument
            info = {"a": pa, "b": pb}
        ops.append(Op(["context", a, b], "context", info=info))

    for i in range(80):
        lo = r.uniform(0.0, 0.6)
        hi = r.uniform(0.9, math.pi / 2) if i % 4 else math.pi / 2
        points = 5 + (i * 7) % 46
        ops.append(Op(["sweep", "--start", repr(lo), "--stop", repr(hi), "--points", str(points)], "sweep"))

    for i in range(100):
        n = 3 + (i * 13) % 38
        frac = ((i % 10) + r.random()) / 10
        ops.append(_boxes_op(r, n, frac, i % 2 == 0, i % 5 == 4))

    for i in range(100):
        trials = 20 + (i * 37) % 181
        ops.append(_qubit_op(r, ("single", "pair", "random2", "random3")[i % 4], trials, _state_token(r)))

    r.shuffle(ops)
    return ops


GENERATORS = {"spin": spin, "domain": domain, "search": search, "battery": battery}

# one small call per subcommand a workload uses, run during set-up so that
# lazy imports and first-call costs land in setup_s, not in the timed pass
WARMUP = {
    "spin": [["qubit", "--axes", "x", "x", "--trials", "50"], ["qubit", "--axes", "z", "x", "--trials", "50"]],
    "domain": [["poset", "{diamond}"]],
    "search": [["boxes", "--boxes", "20", "--ball", "7"], ["boxes", "--boxes", "20", "--ball", "7", "--format", "csv"]],
    "battery": [["axioms", "--samples", "20"], ["context", "z", "x"], ["sweep", "--points", "5"],
                ["boxes", "--boxes", "5", "--ball", "3"], ["qubit", "--axes", "z", "x", "--trials", "20"]],
}

_DIAMOND = {"elements": ["bottom", "left", "right", "top"],
            "covers": [["bottom", "left"], ["bottom", "right"], ["left", "top"], ["right", "top"]]}


def generate(workload: str, seed: int, workdir: str) -> List[Op]:
    """Write the workload's input files into `workdir` and return its ops."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](seed, workdir)


def warmup_argvs(workload: str, workdir: str) -> List[List[str]]:
    diamond = os.path.join(workdir, "warmup_diamond.json")
    with open(diamond, "w", encoding="utf-8") as fh:
        json.dump(_DIAMOND, fh)
    return [[tok.replace("{diamond}", diamond) for tok in argv] for argv in WARMUP[workload]]
