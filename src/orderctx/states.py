"""Classical probabilistic states and their information order.

States are probability vectors.  One state sits below another when both can
be sorted non-increasingly by a single shared permutation under which the
adjacent odds only ever shift toward the front: x[i]*y[i+1] <= x[i+1]*y[i].
The uniform state is the least element, point masses are the maximal ones,
and conditioning on a ruled-out outcome moves a uniform-over-support state
strictly upward.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CertainOutcomeError,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidStateError,
    ParameterOutOfRange,
)

_SUM_TOL = 1e-9
_NEG_DUST = 1e-12
# Slack for the adjacent-odds comparison: products of probabilities carry at
# most ~1e-16 of rounding, so anything past 1e-12 is a real violation.
_ODDS_TOL = 1e-12


class ClassicalState:
    """Probability vector over n >= 1 outcomes."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=float).reshape(-1).copy()
        if arr.size < 1:
            raise InvalidDimension("a state needs at least one outcome")
        if (arr < -_NEG_DUST).any():
            raise InvalidStateError(f"negative component in {arr!r}")
        arr[arr < 0.0] = 0.0
        total = float(arr.sum())
        if not math.isfinite(total):  # a NaN or inf component; NaN fails every comparison
            raise InvalidStateError(f"non-finite component in {arr!r}")
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidStateError(f"components sum to {total!r}, not 1")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def dim(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"ClassicalState({np.array2string(self.probs, separator=', ')})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalState):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool((self.probs == other.probs).all())

    def __hash__(self):
        return hash(self.probs.tobytes())


def mixed(n: int) -> ClassicalState:
    """The completely mixed state: uniform over n outcomes, least informative."""
    if n < 1:
        raise InvalidDimension("n must be at least 1")
    return ClassicalState(np.full(n, 1.0 / n))


def pure(n: int, i: int) -> ClassicalState:
    """Point mass on outcome i."""
    if n < 1:
        raise InvalidDimension("n must be at least 1")
    if not 0 <= i < n:
        raise IndexOutOfRange(f"outcome {i} outside [0, {n})")
    probs = np.zeros(n)
    probs[i] = 1.0
    return ClassicalState(probs)


def is_pure(x: ClassicalState, tol: float = 1e-12) -> bool:
    """Point mass up to tol: one component at 1, the rest at 0."""
    return bool(x.probs.max() >= 1.0 - tol)


def bayesian_leq(x: ClassicalState, y: ClassicalState) -> bool:
    """Whether x is below y in the information order on states.

    Looks for a single permutation sorting both vectors non-increasingly and
    then checks the adjacent-odds condition along it.  All permutations that
    co-sort a given pair produce the same sequence of component pairs (ties
    can only be swapped when both vectors tie at once, which leaves the
    condition unchanged), so checking one co-sorting candidate is a complete
    decision procedure; the candidate is built by sorting on x with y as the
    tie-break.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions {x.dim} and {y.dim} differ")
    xv, yv = x.probs, y.probs
    order = np.lexsort((-yv, -xv))
    xs, ys = xv[order], yv[order]
    if (ys[:-1] < ys[1:]).any():
        return False  # no permutation sorts both
    lhs = xs[:-1] * ys[1:]
    rhs = xs[1:] * ys[:-1]
    return bool((lhs <= rhs + _ODDS_TOL).all())


def mixing_path(x: ClassicalState, y: ClassicalState, t: float) -> ClassicalState:
    """Convex combination (1-t)*x + t*y."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions {x.dim} and {y.dim} differ")
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"t={t!r} outside [0, 1]")
    return ClassicalState((1.0 - t) * x.probs + t * y.probs)


def eliminate(x: ClassicalState, i: int) -> ClassicalState:
    """Condition on outcome i being ruled out: zero it and renormalize."""
    if not 0 <= i < x.dim:
        raise IndexOutOfRange(f"outcome {i} outside [0, {x.dim})")
    if x.probs[i] >= 1.0 - _SUM_TOL:
        raise CertainOutcomeError("cannot rule out an outcome of probability one")
    w = x.probs.copy()
    w[i] = 0.0
    return ClassicalState(w / w.sum())


def sample_state(n: int, rng: np.random.Generator) -> ClassicalState:
    """Random state: normalized uniform positives."""
    if n < 1:
        raise InvalidDimension("n must be at least 1")
    u = 1.0 - rng.random(n)  # (0, 1]: keeps every component strictly positive
    return ClassicalState(u / u.sum())


def sample_ordered_pair(n: int, rng: np.random.Generator) -> tuple:
    """Pair (x, y) with x below y, drawn along a mixing path.

    Both points sit on the segment from the completely mixed state to a random
    target; consecutive points on such a segment are always order-related, so
    the pair is comparable by construction.
    """
    target = sample_state(n, rng)
    bottom = mixed(n)
    t_lo, t_hi = sorted(rng.random(2))
    return mixing_path(bottom, target, t_lo), mixing_path(bottom, target, t_hi)
