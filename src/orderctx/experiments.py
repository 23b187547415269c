"""Sequential-measurement experiments and their determinism verdicts.

Two model experiments: a classical search (one ball hidden in n boxes,
opened one at a time, knowledge tracked as a state that climbs the
information order) and repeated spin measurements along a chain of axes.
Both produce traces whose entropy column tells you whether the process
pins down a definite outcome: classically the entropy always hits zero,
while a qubit sequence that keeps switching axes never settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import IndexOutOfRange, InvalidDimension, InvalidPermutation, ParameterOutOfRange
from .measures import shannon_bits
from .qubit import BlochAxis, QubitState, transition_probs
from .rng import philox_generator  # noqa: F401  (a binding perfbench's tracer test reads)
from .rng import stream_uniforms
from .states import ClassicalState, eliminate, mixed, pure

DEFAULT_EPSILON = 0.01

# qubit_experiment simulates trials in blocks of this many: large enough that
# numpy's per-call overhead is spread thin, small enough that the draws of a
# block stay a few hundred kilobytes whatever the trial count.
_TRIAL_BLOCK = 4096


@dataclass
class BoxStep:
    box: int
    found: bool
    state: ClassicalState
    entropy_bits: float


@dataclass
class ClassicalTrace:
    """Search trace: initial ignorance plus one step per opened box."""

    n_boxes: int
    ball_index: int
    opening_order: Tuple[int, ...]
    initial_state: ClassicalState
    steps: List[BoxStep] = field(default_factory=list)

    @property
    def entropies(self) -> List[float]:
        """Entropy column, initial state first."""
        return [shannon_bits(self.initial_state)] + [s.entropy_bits for s in self.steps]

    @property
    def final_state(self) -> ClassicalState:
        return self.steps[-1].state if self.steps else self.initial_state


def boxes_experiment(
    n_boxes: int,
    ball_index: int,
    opening_order: Optional[Sequence[int]] = None,
) -> ClassicalTrace:
    """Open boxes in order until the ball is found or inferred.

    Failing to find the ball rules the opened box out (condition and
    renormalize); finding it collapses the state to a point mass.  The
    search stops as soon as the state is pure, so the last box is never
    opened just to confirm what elimination already proved.
    """
    if n_boxes < 1:
        raise InvalidDimension("need at least one box")
    if not 0 <= ball_index < n_boxes:
        raise IndexOutOfRange(f"ball index {ball_index} outside [0, {n_boxes})")
    if opening_order is None:
        opening_order = tuple(range(n_boxes))
    else:
        opening_order = tuple(int(b) for b in opening_order)
        if sorted(opening_order) != list(range(n_boxes)):
            raise InvalidPermutation(f"{opening_order!r} is not a permutation of 0..{n_boxes - 1}")
    state = mixed(n_boxes)
    trace = ClassicalTrace(n_boxes, ball_index, opening_order, state)
    for box in opening_order:
        if state.probs.max() == 1.0:
            break  # location already certain
        found = box == ball_index
        state = pure(n_boxes, ball_index) if found else eliminate(state, box)
        trace.steps.append(BoxStep(box, found, state, shannon_bits(state)))
        if found:
            break
    return trace


@dataclass
class QuantumAggregate:
    """Statistics of many seeded runs of one measurement sequence."""

    axes: Tuple[BlochAxis, ...]
    trials: int
    seed: int
    per_step_entropy_bits: List[float]
    empirical_frequencies: List[Tuple[int, int]]  # (plus, minus) counts per step
    distinct_maximal_states: int
    same_axis_repeat_probability: Optional[float]


def predicted_step_entropies(input_state: QubitState, axes: Sequence[BlochAxis]) -> List[float]:
    """Exact predictive entropy at each step of the chain.

    After the first step the state is one of the two eigenstates of the
    previous axis, and both branches give the same entropy (the binary
    entropy is symmetric), so the whole column is analytic: no sampling.
    """
    entropies = []
    state = input_state
    for axis in axes:
        entropies.append(shannon_bits(transition_probs(state, axis)))
        state = axis.plus_state()
    return entropies


def qubit_experiment(
    input_state: QubitState,
    axes: Sequence[BlochAxis],
    trials: int,
    seed: int,
) -> QuantumAggregate:
    """Run the sequence many times; per-trial streams keyed by (seed, trial).

    Trial t measures step k with draw k of stream (seed, t), exactly as
    ``run_sequence(input_state, axes, philox_generator(seed, t))`` would, so
    the counts equal a trial-by-trial replay.  The trials are simulated
    together, a block at a time: after the first step a trial's state is the
    plus or minus eigenstate of the previous axis, so each step needs only two
    outcome probabilities, chosen per trial by its previous outcome.
    """
    axes = tuple(axes)
    if not axes:
        raise ParameterOutOfRange("need at least one measurement axis")
    if trials < 1:
        raise ParameterOutOfRange("trials must be positive")
    # p(+) at step k after a + and after a - outcome at step k-1; the same
    # transition_probs calls run_sequence makes, so eigenstates stay exact
    branch_probs = [
        (transition_probs(prev.plus_state(), axis)[0], transition_probs(prev.minus_state(), axis)[0])
        for prev, axis in zip(axes, axes[1:])
    ]
    first_prob = transition_probs(input_state, axes[0])[0]
    repeats = [axes[k] == axes[k - 1] for k in range(1, len(axes))]
    plus_counts = [0] * len(axes)
    repeat_hits = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        streams = np.arange(start, min(start + _TRIAL_BLOCK, trials), dtype=np.uint64)
        draws = stream_uniforms(seed, streams, len(axes))
        plus = draws[:, 0] < first_prob
        plus_counts[0] += int(np.count_nonzero(plus))
        for k in range(1, len(axes)):
            p_after_plus, p_after_minus = branch_probs[k - 1]
            prev, plus = plus, draws[:, k] < np.where(plus, p_after_plus, p_after_minus)
            plus_counts[k] += int(np.count_nonzero(plus))
            if repeats[k - 1]:
                repeat_hits += int(np.count_nonzero(plus == prev))
    # every trial's post-measurement states are these QubitStates, so the set
    # keeps their hash and == semantics (a -0.0 component hashes apart)
    seen = set()
    for axis, plus in zip(axes, plus_counts):
        if plus:
            seen.add(axis.plus_state())
        if plus < trials:
            seen.add(axis.minus_state())
    repeat_total = sum(repeats) * trials
    return QuantumAggregate(
        axes=axes,
        trials=trials,
        seed=seed,
        per_step_entropy_bits=predicted_step_entropies(input_state, axes),
        empirical_frequencies=[(plus, trials - plus) for plus in plus_counts],
        distinct_maximal_states=len(seen),
        same_axis_repeat_probability=(repeat_hits / repeat_total) if repeat_total else None,
    )


def fixed_basis_repeat(
    axis: BlochAxis,
    trials: int,
    seed: int,
    input_state: Optional[QubitState] = None,
) -> float:
    """Fraction of trials where re-measuring along the same axis repeats.

    Ideal collapse makes the second outcome certain, so this returns exactly
    1.0; it exists as an executable check of that claim, not as an estimate.
    """
    if input_state is None:
        input_state = BlochAxis.named("z").plus_state()
    return qubit_experiment(input_state, [axis, axis], trials, seed).same_axis_repeat_probability


@dataclass
class DeterminismVerdict:
    """Does the trace pin down all remaining outcomes, exactly or nearly?

    steps_to_certainty counts observations consumed before every later
    outcome is predetermined: the position of the first exact zero in the
    entropy column (classical), or the number of steps before the all-zero
    tail of the predictive column (quantum).  None when never certain.
    """

    physically_deterministic: bool
    approximately_deterministic: bool
    steps_to_certainty: Optional[int]
    epsilon: float


def determinism_check(
    trace: Union[ClassicalTrace, QuantumAggregate],
    epsilon: float = DEFAULT_EPSILON,
) -> DeterminismVerdict:
    """Classify a trace as deterministic, approximately so, or neither."""
    if not 0.0 < epsilon < math.inf:
        raise ParameterOutOfRange("epsilon must be positive and finite")
    if isinstance(trace, ClassicalTrace):
        column = trace.entropies
        exact = 0.0 in column
        steps = column.index(0.0) if exact else None
    elif isinstance(trace, QuantumAggregate):
        column = trace.per_step_entropy_bits
        # certain from step k+1 onward iff entries k.. are all zero
        tail = len(column)
        while tail > 0 and column[tail - 1] == 0.0:
            tail -= 1
        exact = tail < len(column)
        steps = tail if exact else None
    else:
        raise TypeError(f"cannot judge determinism of {type(trace).__name__}")
    approx = (not exact) and column[-1] <= epsilon
    return DeterminismVerdict(
        physically_deterministic=exact,
        approximately_deterministic=approx,
        steps_to_certainty=steps,
        epsilon=epsilon,
    )
