import math

import numpy as np
import pytest

from orderctx import (
    BlochAxis,
    DimensionMismatch,
    InvalidDimension,
    InvalidStateError,
    NBasis,
    ParameterOutOfRange,
    QubitState,
    angle_between,
    axis_transition_matrix,
    measure,
    philox_generator,
    random_basis,
    run_sequence,
    transition_matrix,
    transition_probs,
)

from conftest import random_sphere_axis


class TestBlochAxis:
    def test_named_axes_have_exact_vectors(self):
        assert np.array_equal(BlochAxis.named("z").unit_vector, [0.0, 0.0, 1.0])
        assert np.array_equal(BlochAxis.named("x").unit_vector, [1.0, 0.0, 0.0])
        assert np.array_equal(BlochAxis.named("y").unit_vector, [0.0, 1.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ParameterOutOfRange):
            BlochAxis.named("w")

    def test_angle_normalization(self):
        a = BlochAxis(5.0, 0.3)
        assert 0.0 <= a.theta <= math.pi
        assert 0.0 <= a.phi < 2.0 * math.pi
        # reflection through the origin keeps the same ray
        b = BlochAxis(2.0 * math.pi - 5.0, 0.3 + math.pi)
        assert a == b

    def test_full_turn_is_identity(self):
        assert BlochAxis(2.0 * math.pi, 7.0) == BlochAxis.named("z")

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterOutOfRange):
            BlochAxis(math.nan)
        with pytest.raises(ParameterOutOfRange):
            BlochAxis(0.0, math.inf)

    def test_unit_norm(self, rng):
        for _ in range(200):
            a = random_sphere_axis(rng)
            assert np.linalg.norm(a.unit_vector) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstates(self):
        z = BlochAxis.named("z")
        assert np.array_equal(z.plus_state().bloch, z.unit_vector)
        assert np.array_equal(z.minus_state().bloch, -z.unit_vector)

    def test_hash_consistent_with_eq(self):
        assert hash(BlochAxis(2.0 * math.pi, 7.0)) == hash(BlochAxis.named("z"))

    def test_vector_is_readonly(self):
        with pytest.raises(ValueError):
            BlochAxis.named("z").unit_vector[0] = 1.0


class TestQubitState:
    def test_validates_norm(self):
        with pytest.raises(ParameterOutOfRange):
            QubitState([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bloch", [[math.nan, 0.0, 0.0], [0.0, 0.0, math.inf], [math.nan, math.nan, 1.0]])
    def test_rejects_nonfinite(self, bloch):
        with pytest.raises(InvalidStateError):
            QubitState(bloch)

    def test_validates_shape(self):
        with pytest.raises(InvalidDimension):
            QubitState([1.0, 0.0])

    def test_equality(self):
        assert QubitState([0.0, 0.0, 1.0]) == BlochAxis.named("z").plus_state()


class TestAngles:
    def test_exact_anchors(self):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        assert angle_between(z, z) == 0.0
        assert angle_between(z, x) == math.pi / 2.0
        assert angle_between(z, z.minus_state()) == math.pi

    def test_symmetric(self, rng):
        for _ in range(100):
            a, b = random_sphere_axis(rng), random_sphere_axis(rng)
            assert angle_between(a, b) == angle_between(b, a)

    def test_matches_arccos_away_from_endpoints(self, rng):
        for _ in range(100):
            a, b = random_sphere_axis(rng), random_sphere_axis(rng)
            d = float(np.dot(a.unit_vector, b.unit_vector))
            if abs(d) < 0.99:
                assert angle_between(a, b) == pytest.approx(math.acos(d), abs=1e-12)


class TestTransitionProbs:
    def test_orthogonal_axes_split_exactly(self):
        p = transition_probs(BlochAxis.named("z").plus_state(), BlochAxis.named("x"))
        assert p == (0.5, 0.5)

    def test_eigenstate_is_structurally_certain(self, rng):
        for _ in range(100):
            a = random_sphere_axis(rng)
            assert transition_probs(a.plus_state(), a) == (1.0, 0.0)
            assert transition_probs(a.minus_state(), a) == (0.0, 1.0)

    def test_half_angle_anchor(self):
        # tilt by pi/3: p_minus = sin^2(pi/6) = 1/4
        p_plus, p_minus = transition_probs(BlochAxis.named("z").plus_state(), BlochAxis(math.pi / 3.0))
        assert p_plus == pytest.approx(0.75, abs=1e-12)
        assert p_minus == pytest.approx(0.25, abs=1e-12)

    def test_probs_sum_to_one_exactly(self, rng):
        for _ in range(300):
            s = random_sphere_axis(rng).plus_state()
            a = random_sphere_axis(rng)
            p_plus, p_minus = transition_probs(s, a)
            assert p_plus + p_minus == 1.0
            assert 0.0 <= p_plus <= 1.0


class TestMeasurement:
    def test_eigenstate_never_flips(self, rng):
        z = BlochAxis.named("z")
        state = z.plus_state()
        for _ in range(200):
            outcome, state = measure(state, z, rng)
            assert outcome == 1
            assert state == z.plus_state()

    def test_collapse_lands_on_axis(self, rng):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        outcome, post = measure(z.plus_state(), x, rng)
        assert outcome in (1, -1)
        assert post in (x.plus_state(), x.minus_state())

    def test_fair_statistics(self):
        rng = philox_generator(99)
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        hits = sum(measure(z.plus_state(), x, rng)[0] == 1 for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.024  # 3 sigma

    def test_sequence_trace_shape(self, rng):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        trace = run_sequence(z.plus_state(), [z, x, x], rng, seed=5)
        assert trace.seed == 5
        assert trace.input_state == z.plus_state()
        assert len(trace.steps) == 3
        assert trace.outcomes == [s.outcome for s in trace.steps]
        # first step is along the preparation axis: certain
        assert trace.steps[0].predictive_probs == (1.0, 0.0)
        assert trace.steps[0].outcome == 1
        # third step repeats the second axis: certain again, outcomes agree
        assert trace.steps[2].predictive_probs in ((1.0, 0.0), (0.0, 1.0))
        assert trace.steps[2].outcome == trace.steps[1].outcome

    def test_sequences_reproduce_under_same_stream(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        t1 = run_sequence(z.plus_state(), [x, y, z, x], philox_generator(3, stream=8))
        t2 = run_sequence(z.plus_state(), [x, y, z, x], philox_generator(3, stream=8))
        assert t1.outcomes == t2.outcomes


class TestNBasis:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidDimension):
            NBasis(np.ones((2, 3)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ParameterOutOfRange):
            NBasis([[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("entry", [math.nan, complex(0.0, math.nan), math.inf])
    def test_rejects_nonfinite(self, entry):
        with pytest.raises(InvalidStateError):
            NBasis([[1.0, 0.0], [0.0, entry]])

    def test_computational(self):
        b = NBasis.computational(4)
        assert b.dim == 4
        assert np.array_equal(b.columns, np.eye(4))
        with pytest.raises(InvalidDimension):
            NBasis.computational(0)

    def test_from_axis_is_orthonormal(self, rng):
        for _ in range(100):
            b = NBasis.from_axis(random_sphere_axis(rng))
            gram = b.columns.conj().T @ b.columns
            assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_random_basis_is_orthonormal(self, rng):
        for n in (2, 3, 5, 8):
            b = random_basis(n, rng)
            gram = b.columns.conj().T @ b.columns
            assert np.abs(gram - np.eye(n)).max() < 1e-9

    def test_columns_readonly(self):
        with pytest.raises(ValueError):
            NBasis.computational(2).columns[0, 0] = 0.0


class TestTransitionMatrices:
    def test_doubly_stochastic(self, rng):
        for n in (2, 3, 4, 6):
            t = transition_matrix(random_basis(n, rng), random_basis(n, rng))
            assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-9
            assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-9
            assert t.min() >= 0.0

    def test_self_transition_is_identity(self, rng):
        b = random_basis(3, rng)
        assert np.abs(transition_matrix(b, b) - np.eye(3)).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            transition_matrix(random_basis(2, rng), random_basis(3, rng))

    def test_axis_route_exact_anchors(self):
        z, x = BlochAxis.named("z"), BlochAxis.named("x")
        assert np.array_equal(axis_transition_matrix(z, z), np.eye(2))
        assert np.array_equal(axis_transition_matrix(z, x), np.full((2, 2), 0.5))

    def test_axis_route_agrees_with_amplitude_route(self, rng):
        for _ in range(200):
            a, b = random_sphere_axis(rng), random_sphere_axis(rng)
            fast = axis_transition_matrix(a, b)
            slow = transition_matrix(NBasis.from_axis(a), NBasis.from_axis(b))
            assert np.abs(fast - slow).max() < 1e-12

    def test_axis_route_symmetric_in_arguments(self, rng):
        for _ in range(100):
            a, b = random_sphere_axis(rng), random_sphere_axis(rng)
            assert np.array_equal(axis_transition_matrix(a, b), axis_transition_matrix(b, a))
