"""Entropy-like content measures and their axioms.

A measurement here is a nonnegative combination of Shannon and Hartley
entropy, evaluated in bits.  ``verify_axioms`` puts a measurement through the
classical axiom battery (expansibility, symmetry, subadditivity, additivity,
normalization) plus monotonicity against the information order on states,
reporting a witness for anything that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterOutOfRange
from .rng import philox_generator
from .states import ClassicalState, is_pure, sample_ordered_pair, sample_state

_KERNEL_TOL = 1e-12
_AXIOM_TOL = 1e-9


def _as_probs(x) -> np.ndarray:
    if isinstance(x, ClassicalState):
        return x.probs
    return np.asarray(x, dtype=float).reshape(-1)


def shannon_bits(x) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0.

    Positive components are sorted ascending before accumulation, so any
    permutation of the input produces the exact same float.
    """
    terms = sorted(p for p in _as_probs(x).tolist() if p > 0.0)
    acc = 0.0
    for p in terms:
        acc -= p * math.log2(p)
    return acc + 0.0  # normalize -0.0 away


def hartley_bits(x) -> float:
    """Hartley entropy: log2 of the support size."""
    support = int((_as_probs(x) > 0.0).sum())
    if support == 0:
        return 0.0
    return math.log2(support)


@dataclass(frozen=True)
class MeasurementFn:
    """Nonnegative combination a*Shannon + b*Hartley (bits)."""

    shannon_weight: float = 1.0
    hartley_weight: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.shannon_weight) and math.isfinite(self.hartley_weight)):
            raise ParameterOutOfRange("weights must be finite")
        if self.shannon_weight < 0.0 or self.hartley_weight < 0.0:
            raise ParameterOutOfRange("weights must be nonnegative")
        if self.shannon_weight == 0.0 and self.hartley_weight == 0.0:
            raise ParameterOutOfRange("at least one weight must be positive")

    def evaluate(self, x) -> float:
        total = 0.0
        if self.shannon_weight != 0.0:
            total += self.shannon_weight * shannon_bits(x)
        if self.hartley_weight != 0.0:
            total += self.hartley_weight * hartley_bits(x)
        return max(total, 0.0)

    __call__ = evaluate

    def describe(self) -> str:
        if self.hartley_weight == 0.0 and self.shannon_weight == 1.0:
            return "shannon"
        if self.shannon_weight == 0.0 and self.hartley_weight == 1.0:
            return "hartley"
        return f"{self.shannon_weight:g}*shannon + {self.hartley_weight:g}*hartley"


SHANNON = MeasurementFn(1.0, 0.0)
HARTLEY = MeasurementFn(0.0, 1.0)


def linear_combo(a: float, b: float) -> MeasurementFn:
    return MeasurementFn(a, b)


@dataclass
class CheckResult:
    passed: bool
    witness: Optional[object] = None


@dataclass
class AxiomReport:
    """Verdict per axiom; a witness is attached exactly when a check fails."""

    measure: str
    samples: int
    seed: int
    expansibility: CheckResult
    symmetry: CheckResult
    subadditivity: CheckResult
    additivity: CheckResult
    normalization: CheckResult
    monotone_on_order: CheckResult

    def all_passed(self) -> bool:
        return all(
            c.passed
            for c in (
                self.expansibility,
                self.symmetry,
                self.subadditivity,
                self.additivity,
                self.normalization,
                self.monotone_on_order,
            )
        )


def verify_axioms(f: MeasurementFn, sample_count: int = 1000, seed: int = 0) -> AxiomReport:
    """Run the axiom battery on ``sample_count`` seeded samples per axiom."""
    if sample_count < 1:
        raise ParameterOutOfRange("sample_count must be positive")
    rng = philox_generator(seed, stream=0)

    expansibility = CheckResult(True)
    for _ in range(sample_count):
        x = sample_state(int(rng.integers(2, 7)), rng)
        padded = np.insert(x.probs, int(rng.integers(0, x.dim + 1)), 0.0)
        if f.evaluate(padded) != f.evaluate(x):  # padding with a zero outcome is free
            expansibility = CheckResult(False, (x.probs, padded))
            break

    symmetry = CheckResult(True)
    for _ in range(sample_count):
        x = sample_state(int(rng.integers(2, 7)), rng)
        shuffled = rng.permutation(x.probs)
        if f.evaluate(shuffled) != f.evaluate(x):  # bit-exact by sorted accumulation
            symmetry = CheckResult(False, (x.probs, shuffled))
            break

    subadditivity = CheckResult(True)
    for k in range(sample_count):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        if k % 5 == 0:
            # independent joint: subadditivity holds with equality
            joint = np.outer(sample_state(rows, rng).probs, sample_state(cols, rng).probs)
        elif k % 5 == 1:
            # fully correlated joint on a square table
            cols = rows
            joint = np.diag(sample_state(rows, rng).probs)
        else:
            u = 1.0 - rng.random((rows, cols))
            joint = u / u.sum()
        left = f.evaluate(joint.reshape(-1))
        right = f.evaluate(joint.sum(axis=1)) + f.evaluate(joint.sum(axis=0))
        if left > right + _AXIOM_TOL:
            subadditivity = CheckResult(False, joint)
            break

    additivity = CheckResult(True)
    for _ in range(sample_count):
        p = sample_state(int(rng.integers(2, 5)), rng)
        q = sample_state(int(rng.integers(2, 5)), rng)
        joint = np.outer(p.probs, q.probs).reshape(-1)
        if abs(f.evaluate(joint) - (f.evaluate(p) + f.evaluate(q))) > _AXIOM_TOL:
            additivity = CheckResult(False, (p.probs, q.probs))
            break

    half = f.evaluate(np.array([0.5, 0.5]))
    normalization = CheckResult(abs(half - 1.0) <= _KERNEL_TOL, None if abs(half - 1.0) <= _KERNEL_TOL else half)

    pairs = (sample_ordered_pair(int(rng.integers(2, 7)), rng) for _ in range(sample_count))
    monotone = is_monotone_on(f, pairs)

    return AxiomReport(
        measure=f.describe(),
        samples=sample_count,
        seed=seed,
        expansibility=expansibility,
        symmetry=symmetry,
        subadditivity=subadditivity,
        additivity=additivity,
        normalization=normalization,
        monotone_on_order=monotone,
    )


def is_monotone_on(f: MeasurementFn, pairs) -> CheckResult:
    """Check f(x) >= f(y) over an iterable of order-related pairs (x, y)."""
    for x, y in pairs:
        if f.evaluate(x) < f.evaluate(y):
            return CheckResult(False, (x, y))
    return CheckResult(True)


def kernel_at_maximal(f: MeasurementFn, x: ClassicalState, tol: float = _KERNEL_TOL) -> bool:
    """Whether `f vanishes on x` agrees with `x is a point mass`."""
    return (f.evaluate(x) <= tol) == is_pure(x, tol)
