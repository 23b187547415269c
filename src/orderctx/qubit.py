"""Ideal projective spin-1/2 measurements on the Bloch sphere.

A measurement axis is a point on the unit sphere; a pure state is a unit
Bloch vector.  The chance of the + outcome along an axis is (1 + s.a)/2,
which is the half-angle law cos^2(angle/2) written without the arccos
round-trip.  Collapse is ideal: the post-measurement state is the axis
itself (or its negation), stored bit-for-bit, so re-measuring along the same
axis repeats the outcome exactly rather than merely to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, InvalidStateError, ParameterOutOfRange

# Components this close to zero are rounding dust from sin/cos at right
# angles; snapping them makes orthogonal axes exactly orthogonal.
_SNAP = 1e-15

_TWO_PI = 2.0 * math.pi


class BlochAxis:
    """Measurement direction given by polar angle theta and azimuth phi.

    Angles are normalized on construction to theta in [0, pi] and phi in
    [0, 2*pi).  The named axes `z`, `x`, `y` come out with exact unit
    vectors (0,0,1), (1,0,0), (0,1,0).
    """

    __slots__ = ("theta", "phi", "unit_vector")

    def __init__(self, theta: float, phi: float = 0.0):
        theta = float(theta)
        phi = float(phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ParameterOutOfRange("angles must be finite")
        theta = theta % _TWO_PI
        if theta > math.pi:
            theta = _TWO_PI - theta
            phi += math.pi
        phi = phi % _TWO_PI
        self.theta = theta
        self.phi = phi
        st = math.sin(theta)
        vec = np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
        vec[np.abs(vec) < _SNAP] = 0.0
        vec.setflags(write=False)
        self.unit_vector = vec

    @classmethod
    def named(cls, name: str) -> "BlochAxis":
        try:
            theta, phi = {"z": (0.0, 0.0), "x": (math.pi / 2, 0.0), "y": (math.pi / 2, math.pi / 2)}[name]
        except KeyError:
            raise ParameterOutOfRange(f"unknown axis name {name!r}") from None
        return cls(theta, phi)

    def plus_state(self) -> "QubitState":
        return QubitState(self.unit_vector)

    def minus_state(self) -> "QubitState":
        return QubitState(-self.unit_vector)

    def __eq__(self, other):
        if not isinstance(other, BlochAxis):
            return NotImplemented
        return bool((self.unit_vector == other.unit_vector).all())

    def __hash__(self):
        return hash(self.unit_vector.tobytes())

    def __repr__(self):
        return f"BlochAxis(theta={self.theta:.6g}, phi={self.phi:.6g})"


class QubitState:
    """Pure state as a unit Bloch vector."""

    __slots__ = ("bloch",)

    def __init__(self, bloch):
        vec = np.asarray(bloch, dtype=float).reshape(-1).copy()
        if vec.size != 3:
            raise InvalidDimension("a Bloch vector has three components")
        norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm):
            raise InvalidStateError(f"non-finite component in {vec!r}")
        if abs(norm - 1.0) > 1e-9:
            raise ParameterOutOfRange(f"Bloch vector norm {norm!r} is not 1")
        vec.setflags(write=False)
        self.bloch = vec

    def __eq__(self, other):
        if not isinstance(other, QubitState):
            return NotImplemented
        return bool((self.bloch == other.bloch).all())

    def __hash__(self):
        return hash(self.bloch.tobytes())

    def __repr__(self):
        return f"QubitState({np.array2string(self.bloch, separator=', ')})"


def angle_between(a, b) -> float:
    """Angle between two directions, stable near 0 and pi."""
    u = _as_direction(a)
    v = _as_direction(b)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def _as_direction(obj) -> np.ndarray:
    if isinstance(obj, BlochAxis):
        return obj.unit_vector
    if isinstance(obj, QubitState):
        return obj.bloch
    return np.asarray(obj, dtype=float).reshape(-1)


def transition_probs(state: QubitState, axis: BlochAxis) -> Tuple[float, float]:
    """(p_plus, p_minus) for measuring the state along the axis.

    Eigenstates of the axis take an exact branch: a state equal to the axis
    direction (or its negation) yields probability exactly 1 or exactly 0.
    Otherwise p_plus = (1 + s.a)/2 and p_minus is its complement, so the two
    always sum to 1 exactly.
    """
    s, a = state.bloch, axis.unit_vector
    if (s == a).all():
        return 1.0, 0.0
    if (s == -a).all():
        return 0.0, 1.0
    d = min(1.0, max(-1.0, float(np.dot(s, a))))
    p_plus = (1.0 + d) / 2.0
    return p_plus, 1.0 - p_plus


def measure(state: QubitState, axis: BlochAxis, rng: np.random.Generator) -> Tuple[int, QubitState]:
    """One ideal measurement: sampled outcome (+1/-1) and collapsed state."""
    p_plus, _ = transition_probs(state, axis)
    if rng.random() < p_plus:
        return 1, axis.plus_state()
    return -1, axis.minus_state()


@dataclass
class TraceStep:
    axis: BlochAxis
    outcome: int
    predictive_probs: Tuple[float, float]
    post_state: QubitState


@dataclass
class QuantumTrace:
    """One measurement sequence: the input state and every recorded step."""

    input_state: QubitState
    steps: List[TraceStep] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def outcomes(self) -> List[int]:
        return [s.outcome for s in self.steps]


def run_sequence(
    input_state: QubitState,
    axes: Sequence[BlochAxis],
    rng: np.random.Generator,
    seed: Optional[int] = None,
) -> QuantumTrace:
    """Measure along each axis in turn, collapsing as we go."""
    trace = QuantumTrace(input_state=input_state, seed=seed)
    state = input_state
    for axis in axes:
        probs = transition_probs(state, axis)
        outcome, state = measure(state, axis, rng)
        trace.steps.append(TraceStep(axis, outcome, probs, state))
    return trace


class NBasis:
    """Orthonormal basis of an n-dimensional complex space, columns as vectors."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        mat = np.asarray(columns, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidDimension("basis must be a square column matrix")
        if mat.shape[0] < 1:
            raise InvalidDimension("basis needs at least one vector")
        if not np.isfinite(mat).all():
            raise InvalidStateError("basis has a non-finite entry")
        gram = mat.conj().T @ mat
        if np.abs(gram - np.eye(mat.shape[0])).max() > 1e-9:
            raise ParameterOutOfRange("columns are not orthonormal")
        mat.setflags(write=False)
        self.columns = mat

    @property
    def dim(self) -> int:
        return int(self.columns.shape[0])

    @classmethod
    def from_axis(cls, axis: BlochAxis) -> "NBasis":
        """Two-dimensional amplitude basis of an axis: (+) column, (-) column."""
        c, s = math.cos(axis.theta / 2.0), math.sin(axis.theta / 2.0)
        phase = complex(math.cos(axis.phi), math.sin(axis.phi))
        return cls(np.array([[c, s], [phase * s, -phase * c]]))

    @classmethod
    def computational(cls, n: int) -> "NBasis":
        if n < 1:
            raise InvalidDimension("n must be at least 1")
        return cls(np.eye(n, dtype=complex))


def random_basis(n: int, rng: np.random.Generator) -> NBasis:
    """Haar-ish random orthonormal basis via QR of a complex Gaussian matrix."""
    if n < 1:
        raise InvalidDimension("n must be at least 1")
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return NBasis(q * (d / np.abs(d)))


def transition_matrix(a: NBasis, b: NBasis) -> np.ndarray:
    """T[i, j] = squared overlap of a's i-th vector with b's j-th vector.

    Rows and columns each sum to one: the matrix is doubly stochastic.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    return np.abs(a.columns.conj().T @ b.columns) ** 2


def axis_transition_matrix(a: BlochAxis, b: BlochAxis) -> np.ndarray:
    """Two-outcome transition matrix straight from the Bloch dot product.

    Equivalent to transition_matrix on the amplitude bases, but exact for
    exactly-orthogonal and exactly-equal axes.
    """
    d = min(1.0, max(-1.0, float(np.dot(a.unit_vector, b.unit_vector))))
    p = (1.0 + d) / 2.0
    q = 1.0 - p
    return np.array([[p, q], [q, p]])
