import math

import numpy as np
import pytest

from orderctx import (
    CertainOutcomeError,
    ClassicalState,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidStateError,
    ParameterOutOfRange,
    bayesian_leq,
    eliminate,
    is_pure,
    mixed,
    mixing_path,
    pure,
    sample_ordered_pair,
    sample_state,
)

from conftest import oracle_state_leq


class TestConstruction:
    def test_validates_total(self):
        with pytest.raises(InvalidStateError):
            ClassicalState([0.5, 0.4])

    def test_validates_sign(self):
        with pytest.raises(InvalidStateError):
            ClassicalState([1.1, -0.1])

    @pytest.mark.parametrize(
        "probs",
        [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 0.0], [1.0, math.inf, -math.inf], [math.nan]],
    )
    def test_rejects_nonfinite(self, probs):
        with pytest.raises(InvalidStateError):
            ClassicalState(probs)

    def test_clips_rounding_dust(self):
        s = ClassicalState([1.0 + 1e-13, -1e-13])
        assert s.probs[1] == 0.0

    def test_needs_an_outcome(self):
        with pytest.raises(InvalidDimension):
            ClassicalState([])

    def test_equality_and_hash(self):
        assert ClassicalState([0.5, 0.5]) == mixed(2)
        assert hash(ClassicalState([0.5, 0.5])) == hash(mixed(2))
        assert ClassicalState([0.5, 0.5]) != ClassicalState([0.6, 0.4])


class TestConstructors:
    def test_mixed(self):
        assert np.array_equal(mixed(4).probs, np.full(4, 0.25))
        with pytest.raises(InvalidDimension):
            mixed(0)

    def test_pure(self):
        assert np.array_equal(pure(3, 1).probs, [0.0, 1.0, 0.0])
        with pytest.raises(IndexOutOfRange):
            pure(3, 3)
        with pytest.raises(InvalidDimension):
            pure(0, 0)

    def test_is_pure(self):
        assert is_pure(pure(5, 2))
        assert not is_pure(mixed(2))


class TestOrderExamples:
    def test_mixed_is_least(self):
        y = ClassicalState([0.6, 0.1, 0.3])
        assert bayesian_leq(mixed(3), y)
        assert not bayesian_leq(y, mixed(3))

    def test_top_heavy_pair_incomparable_downward(self):
        assert not bayesian_leq(ClassicalState([0.9, 0.1]), mixed(2))
        assert bayesian_leq(mixed(2), ClassicalState([0.9, 0.1]))

    def test_uniform_support_shrink(self):
        assert bayesian_leq(mixed(3), ClassicalState([0.0, 0.5, 0.5]))
        assert bayesian_leq(ClassicalState([0.0, 0.5, 0.5]), pure(3, 2))

    def test_pure_states_are_maximal(self, rng):
        top = pure(4, 1)
        assert bayesian_leq(top, top)
        for _ in range(50):
            y = sample_state(4, rng)
            assert not bayesian_leq(top, y)

    def test_below_pure_iff_argmax_matches(self):
        x = ClassicalState([0.2, 0.5, 0.3])
        assert bayesian_leq(x, pure(3, 1))
        assert not bayesian_leq(x, pure(3, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bayesian_leq(mixed(2), mixed(3))


class TestOrderProperties:
    def test_matches_permutation_oracle(self, rng):
        # comparable, incomparable, and tied inputs all agree with the
        # exhaustive permutation scan
        for k in range(300):
            n = 2 + k % 4
            if k % 3 == 0:
                x, y = sample_ordered_pair(n, rng)
                xp, yp = x.probs, y.probs
            elif k % 3 == 1:
                xp, yp = sample_state(n, rng).probs, sample_state(n, rng).probs
            else:
                support = int(rng.integers(1, n + 1))
                xp = np.zeros(n)
                xp[rng.permutation(n)[:support]] = 1.0 / support
                yp = rng.permutation(xp)
            assert bayesian_leq(ClassicalState(xp), ClassicalState(yp)) == oracle_state_leq(xp, yp)

    def test_reflexive(self, rng):
        for n in (1, 2, 5):
            x = sample_state(n, rng)
            assert bayesian_leq(x, x)

    def test_antisymmetric_within_tolerance(self, rng):
        for _ in range(200):
            x, y = sample_ordered_pair(int(rng.integers(2, 7)), rng)
            if bayesian_leq(x, y) and bayesian_leq(y, x):
                assert np.abs(x.probs - y.probs).max() <= 1e-9

    def test_transitive_along_segments(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            target = sample_state(n, rng)
            t1, t2, t3 = sorted(rng.random(3))
            a = mixing_path(mixed(n), target, t1)
            b = mixing_path(mixed(n), target, t2)
            c = mixing_path(mixed(n), target, t3)
            assert bayesian_leq(a, b) and bayesian_leq(b, c) and bayesian_leq(a, c)


class TestMixing:
    def test_endpoint_validation(self):
        with pytest.raises(ParameterOutOfRange):
            mixing_path(mixed(2), mixed(2), 1.5)
        with pytest.raises(DimensionMismatch):
            mixing_path(mixed(2), mixed(3), 0.5)

    def test_mixing_law_on_segments(self, rng):
        # x below y forces x below (1-t)x+ty below y; sampled, any violation
        # would surface here as a plain failure
        for _ in range(300):
            n = int(rng.integers(2, 7))
            x, y = sample_ordered_pair(n, rng)
            t = float(rng.random())
            mid = mixing_path(x, y, t)
            assert bayesian_leq(x, mid)
            assert bayesian_leq(mid, y)

    def test_ordered_pair_generator_is_ordered(self, rng):
        for _ in range(200):
            x, y = sample_ordered_pair(int(rng.integers(2, 7)), rng)
            assert bayesian_leq(x, y)


class TestEliminate:
    def test_uniform_chain(self):
        s = eliminate(mixed(3), 0)
        assert np.array_equal(s.probs, [0.0, 0.5, 0.5])
        s = eliminate(s, 1)
        assert s == pure(3, 2)

    def test_certain_outcome_rejected(self):
        with pytest.raises(CertainOutcomeError):
            eliminate(pure(3, 1), 1)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            eliminate(mixed(3), 5)

    def test_moves_up_from_uniform_support(self, rng):
        # ruling out one of the currently-least-likely outcomes refines the
        # state; chains that start uniform stay uniform-over-support, so each
        # elimination climbs the order
        for _ in range(60):
            n = int(rng.integers(3, 8))
            state = mixed(n)
            alive = list(range(n))
            while len(alive) > 1:
                drop = alive.pop(int(rng.integers(0, len(alive))))
                refined = eliminate(state, drop)
                assert bayesian_leq(state, refined)
                state = refined

    def test_nonminimal_elimination_leaves_the_order(self):
        # ruling out the most likely outcome reverses the ranking, and the
        # order deliberately refuses to call that a refinement
        x = ClassicalState([0.5, 0.3, 0.2])
        dropped_top = eliminate(x, 0)
        assert not bayesian_leq(x, dropped_top)
        assert not oracle_state_leq(x.probs, dropped_top.probs)
        # dropping the least likely outcome keeps the ranking and stays comparable
        dropped_bottom = eliminate(x, 2)
        assert bayesian_leq(x, dropped_bottom)
