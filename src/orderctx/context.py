"""How far apart two measurement contexts sit, in bits.

The distance between two orthonormal bases is the mean Shannon entropy of
the rows of their transition matrix: zero when the bases share a context
(outcomes map one-to-one), log2(n) when every outcome of one is completely
noncommittal about the other (mutually unbiased), strictly between
otherwise.  The same idea transfers to finite posets through vanishing
measure on common upper bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import InvalidDimension, ParameterOutOfRange, UnknownLabelError
from .measures import shannon_bits
from .poset import FinitePoset
from .qubit import BlochAxis, NBasis, _plus_probability, axis_transition_matrix, transition_matrix

_DEFAULT_TOL = 1e-9


class Classification(str, enum.Enum):
    IDENTICAL_CONTEXT = "IdenticalContext"
    PARTIAL_CONTEXT = "PartialContext"
    ORTHOGONAL_BASES = "OrthogonalBases"


@dataclass
class ContextReport:
    """Distance value with its scale: sup_bits = log2(dim) is the ceiling."""

    value_bits: float
    sup_bits: float
    classification: Classification
    normalized: float


BasisLike = Union[NBasis, BlochAxis]


def contextual_distance(a: BasisLike, b: BasisLike, tol: float = _DEFAULT_TOL) -> ContextReport:
    """Mean row entropy of the transition matrix between two bases.

    Accepts two n-dimensional bases, or two qubit axes (which take the exact
    Bloch route, so identical and orthogonal axes hit 0 and 1 exactly).
    """
    if not 0.0 < tol < math.inf:
        raise ParameterOutOfRange("tolerance must be positive and finite")
    if isinstance(a, BlochAxis) and isinstance(b, BlochAxis):
        t = axis_transition_matrix(a, b)
    else:
        if isinstance(a, BlochAxis):
            a = NBasis.from_axis(a)
        if isinstance(b, BlochAxis):
            b = NBasis.from_axis(b)
        t = transition_matrix(a, b)
    n = t.shape[0]
    if n < 2:
        raise InvalidDimension("context distance needs at least two outcomes")
    # Row entropies are accumulated in sorted order so relabeling either
    # basis's outcomes cannot move the mean by even one ulp.
    row_entropies = sorted(shannon_bits(row) for row in t)
    value = sum(row_entropies) / n
    sup = float(np.log2(n))
    if value <= tol:
        cls = Classification.IDENTICAL_CONTEXT
    elif abs(value - sup) <= tol:
        cls = Classification.ORTHOGONAL_BASES
    else:
        cls = Classification.PARTIAL_CONTEXT
    return ContextReport(
        value_bits=value,
        sup_bits=sup,
        classification=cls,
        normalized=value / sup,
    )


def qubit_distance_curve(thetas: Iterable[float]) -> list:
    """Distance between two qubit axes as a function of their angle.

    value(theta) = H(cos^2(theta/2), sin^2(theta/2)); computed analytically
    from the angle, no basis construction involved.
    """
    values = []
    for theta in thetas:
        p = _plus_probability(float(np.cos(theta)))
        values.append(shannon_bits((p, 1.0 - p)))
    return values


def identical_context_closure(j: BasisLike, k: BasisLike, l: BasisLike, tol: float = _DEFAULT_TOL) -> bool:
    """Zero distance must chain: j~k and k~l forces j~l.

    Returns True when the implication holds for this triple (vacuously when
    the premise fails).
    """
    if contextual_distance(j, k, tol).classification is not Classification.IDENTICAL_CONTEXT:
        return True
    if contextual_distance(k, l, tol).classification is not Classification.IDENTICAL_CONTEXT:
        return True
    return contextual_distance(j, l, tol).classification is Classification.IDENTICAL_CONTEXT


def poset_orthogonal(
    p: FinitePoset,
    f: Mapping[str, float],
    x: str,
    y: str,
    tol: float = 1e-12,
) -> bool:
    """Order-theoretic orthogonality: content vanishes on all common upper bounds.

    ``f`` assigns a nonnegative content value to every element and must be
    monotone against the order (below means at least as much content).  Two
    elements are orthogonal when every common upper bound has zero content;
    an empty intersection counts as orthogonal.
    """
    if not 0.0 <= tol < math.inf:
        raise ParameterOutOfRange("tolerance must be nonnegative and finite")
    for e in p.elements:
        if e not in f:
            raise UnknownLabelError(f"no content value for element {e!r}")
    for i, lo in enumerate(p.elements):
        for j, hi in enumerate(p.elements):
            if p.leq[i, j] and f[lo] < f[hi] - tol:
                raise ParameterOutOfRange(
                    f"content must not grow along the order: f({lo!r}) < f({hi!r})"
                )
    common = p.up_set(x) & p.up_set(y)
    return all(abs(f[e]) <= tol for e in common)
