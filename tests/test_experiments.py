import math

import numpy as np
import pytest

from orderctx import (
    BlochAxis,
    ClassicalTrace,
    IndexOutOfRange,
    InvalidDimension,
    InvalidPermutation,
    ParameterOutOfRange,
    bayesian_leq,
    boxes_experiment,
    determinism_check,
    fixed_basis_repeat,
    mixed,
    philox_generator,
    predicted_step_entropies,
    pure,
    qubit_experiment,
    run_sequence,
    shannon_bits,
)

from conftest import random_sphere_axis


class TestBoxesSearch:
    def test_three_boxes_ball_last(self):
        trace = boxes_experiment(3, 2)
        assert trace.entropies == [math.log2(3), 1.0, 0.0]
        assert [s.box for s in trace.steps] == [0, 1]
        assert [s.found for s in trace.steps] == [False, False]
        # the third box is never opened: elimination already proved it
        assert trace.final_state == pure(3, 2)

    def test_finds_on_first_try(self):
        trace = boxes_experiment(3, 0)
        assert trace.entropies == [math.log2(3), 0.0]
        assert trace.steps[0].found
        assert trace.final_state == pure(3, 0)

    def test_single_box_needs_no_opening(self):
        trace = boxes_experiment(1, 0)
        assert trace.steps == []
        assert trace.entropies == [0.0]
        assert trace.final_state == mixed(1)

    def test_entropy_column_ignores_opening_order(self):
        # a miss removes one equally-likely candidate whichever box it was
        default = boxes_experiment(4, 3)
        shuffled = boxes_experiment(4, 3, opening_order=[2, 1, 0, 3])
        assert default.entropies == shuffled.entropies == [2.0, math.log2(3), 1.0, 0.0]

    def test_each_miss_costs_one_candidate(self):
        # renormalizing after a miss rounds (1/n)/((n-k)/n), so wide columns
        # can sit an ulp off log2(n-k); the endpoints stay exact regardless
        for n in range(2, 13):
            trace = boxes_experiment(n, n - 1)
            expected = [math.log2(n - k) for k in range(n - 1)] + [0.0]
            assert trace.entropies == pytest.approx(expected, abs=1e-12)
            assert trace.entropies[-1] == 0.0
            assert trace.entropies[-2] == 1.0

    def test_entropies_strictly_decrease(self):
        for n, ball in ((2, 1), (5, 3), (8, 0), (9, 8)):
            column = boxes_experiment(n, ball).entropies
            assert all(a > b for a, b in zip(column, column[1:]))

    def test_states_climb_the_information_order(self):
        trace = boxes_experiment(6, 4, opening_order=[5, 0, 2, 4, 1, 3])
        states = [trace.initial_state] + [s.state for s in trace.steps]
        for a, b in zip(states, states[1:]):
            assert bayesian_leq(a, b)
            assert not bayesian_leq(b, a)

    def test_entropy_matches_state(self):
        trace = boxes_experiment(7, 3, opening_order=[6, 5, 4, 3, 2, 1, 0])
        for step in trace.steps:
            assert step.entropy_bits == shannon_bits(step.state)

    def test_validation(self):
        with pytest.raises(InvalidDimension):
            boxes_experiment(0, 0)
        with pytest.raises(IndexOutOfRange):
            boxes_experiment(3, 3)
        with pytest.raises(InvalidPermutation):
            boxes_experiment(3, 0, opening_order=[0, 1])
        with pytest.raises(InvalidPermutation):
            boxes_experiment(3, 0, opening_order=[0, 1, 1])


class TestPredictedEntropies:
    def test_repeat_axis_goes_quiet(self):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        assert predicted_step_entropies(z.plus_state(), [z, x, x, x]) == [0.0, 1.0, 0.0, 0.0]

    def test_alternating_axes_stay_loud(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        assert predicted_step_entropies(z.plus_state(), [x, y, x, y]) == [1.0, 1.0, 1.0, 1.0]

    def test_first_entry_reflects_preparation(self, rng):
        for _ in range(50):
            a = random_sphere_axis(rng)
            column = predicted_step_entropies(a.plus_state(), [a, a])
            assert column == [0.0, 0.0]


class TestQubitAggregate:
    def test_fair_split_statistics(self):
        agg = qubit_experiment(BlochAxis.named("z").plus_state(), [BlochAxis.named("x")], trials=2000, seed=42)
        plus, minus = agg.empirical_frequencies[0]
        assert plus + minus == 2000
        assert abs(plus / 2000 - 0.5) < 0.034  # 3 sigma
        assert agg.per_step_entropy_bits == [1.0]
        assert agg.distinct_maximal_states == 2
        assert agg.same_axis_repeat_probability is None

    def test_alternating_axes_visit_four_states(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        agg = qubit_experiment(z.plus_state(), [x, y], trials=400, seed=7)
        assert agg.distinct_maximal_states == 4

    def test_repeat_probability_is_structurally_one(self):
        x = BlochAxis.named("x")
        agg = qubit_experiment(BlochAxis.named("z").plus_state(), [x, x], trials=500, seed=3)
        assert agg.same_axis_repeat_probability == 1.0
        assert agg.per_step_entropy_bits == [1.0, 0.0]

    def test_reproducible_across_runs(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        a = qubit_experiment(z.plus_state(), [x, y, x], trials=300, seed=11)
        b = qubit_experiment(z.plus_state(), [x, y, x], trials=300, seed=11)
        assert a == b

    def test_seed_actually_matters(self):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        a = qubit_experiment(z.plus_state(), [x], trials=300, seed=1)
        b = qubit_experiment(z.plus_state(), [x], trials=300, seed=2)
        assert a.empirical_frequencies != b.empirical_frequencies

    def test_validation(self):
        z = BlochAxis.named("z")
        with pytest.raises(ParameterOutOfRange):
            qubit_experiment(z.plus_state(), [], trials=10, seed=0)
        with pytest.raises(ParameterOutOfRange):
            qubit_experiment(z.plus_state(), [z], trials=0, seed=0)


_Z, _X, _Y = (BlochAxis.named(n) for n in "zxy")
_TILT = BlochAxis(0.83, 2.1)
_FLIP = BlochAxis(math.pi / 2, math.pi)  # unit vector (-1, 0, 0): x.minus_state() holds -0.0s
_A, _B = BlochAxis(0.3, 1.0), BlochAxis(2.5, 4.0)

# (input, axes, trials, seed) -> (empirical_frequencies, distinct_maximal_states,
# same_axis_repeat_probability), pinned from the per-trial engine.  The trial
# counts straddle the batched engine's block edges; the seeds include a
# negative one and one at or above 2**63.
GOLDEN = [
    ((_Z.plus_state(), [_X], 4095, 0), ([(2118, 1977)], 2, None)),
    ((_Z.plus_state(), [_X, _Y], 4096, -3), ([(2093, 2003), (2063, 2033)], 4, None)),
    ((_Z.plus_state(), [_X, _X], 4097, 2**63 + 5), ([(2085, 2012), (2085, 2012)], 2, 1.0)),
    (
        (_Z.plus_state(), [_Z, _X, _Z, _X], 10001, 42),
        ([(10001, 0), (4999, 5002), (5058, 4943), (5024, 4977)], 4, None),
    ),
    ((_X.plus_state(), [_X, _Y, _X], 500, 7), ([(500, 0), (248, 252), (256, 244)], 4, None)),
    ((_Y.minus_state(), [_TILT, _TILT, _Y], 3000, 11), ([(542, 2458), (542, 2458), (874, 2126)], 4, 1.0)),
    # x and _FLIP share two states under ==, but -0.0 hashes apart: four counted
    ((_Z.plus_state(), [_X, _FLIP, _X, _FLIP], 1000, 5), ([(516, 484), (484, 516), (516, 484), (484, 516)], 4, None)),
    (
        (_Y.minus_state(), [_A, _B, _Z, _A, _Y], 2048, 123456789),
        ([(778, 1270), (1274, 774), (811, 1237), (814, 1234), (952, 1096)], 8, None),
    ),
    ((_Z.minus_state(), [_Z, _Z, _X], 100, 1), ([(0, 100), (0, 100), (50, 50)], 3, 1.0)),
    ((_Z.plus_state(), [_Z, BlochAxis(0.001)], 1, 2), ([(1, 0), (1, 0)], 2, None)),
]


class TestQubitGolden:
    @pytest.mark.parametrize("config, expected", GOLDEN)
    def test_aggregate_matches_pinned_values(self, config, expected):
        agg = qubit_experiment(*config)
        frequencies, distinct, repeat = expected
        assert agg.empirical_frequencies == frequencies
        assert agg.distinct_maximal_states == distinct
        assert agg.same_axis_repeat_probability == repeat

    def test_matches_trial_by_trial_replay(self, rng):
        # reference: every trial replayed through run_sequence on its own stream
        named = [_Z, _X, _Y, _FLIP]
        for _ in range(12):
            pool = named + [random_sphere_axis(rng) for _ in range(2)]
            axes = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 6)))]
            state = pool[int(rng.integers(len(pool)))]
            state = state.plus_state() if rng.random() < 0.5 else state.minus_state()
            trials, seed = int(rng.integers(1, 300)), int(rng.integers(-(2**40), 2**40))
            counts = np.zeros((len(axes), 2), dtype=int)
            seen, hits, total = set(), 0, 0
            for trial in range(trials):
                steps = run_sequence(state, axes, philox_generator(seed, trial)).steps
                for k, step in enumerate(steps):
                    counts[k, 0 if step.outcome == 1 else 1] += 1
                    seen.add(step.post_state)
                    if k and step.axis == steps[k - 1].axis:
                        total += 1
                        hits += step.outcome == steps[k - 1].outcome
            agg = qubit_experiment(state, axes, trials, seed)
            assert agg.empirical_frequencies == [tuple(row) for row in counts.tolist()]
            assert agg.distinct_maximal_states == len(seen)
            assert agg.same_axis_repeat_probability == (hits / total if total else None)


class TestFixedBasisRepeat:
    def test_exactly_one_for_named_axes(self):
        for name in "zxy":
            assert fixed_basis_repeat(BlochAxis.named(name), trials=200, seed=5) == 1.0

    def test_exactly_one_for_random_axes(self, rng):
        for _ in range(5):
            axis = random_sphere_axis(rng)
            state = random_sphere_axis(rng).plus_state()
            assert fixed_basis_repeat(axis, trials=100, seed=9, input_state=state) == 1.0

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            fixed_basis_repeat(BlochAxis.named("z"), trials=0, seed=0)


class TestDeterminismVerdicts:
    def test_classical_search_is_always_deterministic(self):
        for n, ball in ((2, 0), (3, 2), (6, 3)):
            verdict = determinism_check(boxes_experiment(n, ball))
            assert verdict.physically_deterministic
            assert not verdict.approximately_deterministic
            assert verdict.steps_to_certainty is not None

    def test_steps_count_the_opened_boxes(self):
        assert determinism_check(boxes_experiment(3, 0)).steps_to_certainty == 1
        assert determinism_check(boxes_experiment(3, 2)).steps_to_certainty == 2
        assert determinism_check(boxes_experiment(1, 0)).steps_to_certainty == 0

    def test_repeated_axis_settles(self):
        x = BlochAxis.named("x")
        agg = qubit_experiment(BlochAxis.named("z").plus_state(), [x, x, x], trials=50, seed=2)
        verdict = determinism_check(agg)
        assert verdict.physically_deterministic
        assert verdict.steps_to_certainty == 1

    def test_axis_switching_never_settles(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        agg = qubit_experiment(z.plus_state(), [x, y, x, y], trials=50, seed=2)
        verdict = determinism_check(agg)
        assert not verdict.physically_deterministic
        assert not verdict.approximately_deterministic
        assert verdict.steps_to_certainty is None

    def test_nearly_aligned_axis_is_approximately_deterministic(self):
        z = BlochAxis.named("z")
        agg = qubit_experiment(z.plus_state(), [z, BlochAxis(0.001)], trials=50, seed=2)
        verdict = determinism_check(agg)
        assert not verdict.physically_deterministic
        assert verdict.approximately_deterministic
        assert verdict.steps_to_certainty is None
        assert 0.0 < agg.per_step_entropy_bits[-1] <= 0.01

    def test_epsilon_is_honored(self):
        z = BlochAxis.named("z")
        agg = qubit_experiment(z.plus_state(), [z, BlochAxis(0.001)], trials=50, seed=2)
        tight = determinism_check(agg, epsilon=1e-9)
        assert not tight.approximately_deterministic
        assert tight.epsilon == 1e-9

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            determinism_check(boxes_experiment(2, 0), epsilon=0.0)
        with pytest.raises(TypeError):
            determinism_check("not a trace")

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ParameterOutOfRange):
            determinism_check(boxes_experiment(2, 0), epsilon=epsilon)

    def test_truncated_search_is_not_deterministic(self):
        # a trace cut off before certainty should be judged on what it shows
        trace = boxes_experiment(8, 7)
        truncated = ClassicalTrace(
            n_boxes=trace.n_boxes,
            ball_index=trace.ball_index,
            opening_order=trace.opening_order,
            initial_state=trace.initial_state,
            steps=trace.steps[:2],
        )
        verdict = determinism_check(truncated)
        assert not verdict.physically_deterministic
        assert not verdict.approximately_deterministic
