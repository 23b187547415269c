import math

import numpy as np
import pytest

from orderctx import (
    BlochAxis,
    Classification,
    FinitePoset,
    InvalidDimension,
    NBasis,
    ParameterOutOfRange,
    UnknownLabelError,
    contextual_distance,
    identical_context_closure,
    philox_generator,
    poset_orthogonal,
    qubit_distance_curve,
    random_basis,
)

from conftest import random_sphere_axis


def fourier_basis(n: int) -> NBasis:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return NBasis(np.exp(2j * np.pi * j * k / n) / math.sqrt(n))


class TestAxisDistance:
    def test_same_axis_is_exactly_zero(self):
        r = contextual_distance(BlochAxis.named("z"), BlochAxis.named("z"))
        assert r.value_bits == 0.0
        assert r.normalized == 0.0
        assert r.classification is Classification.IDENTICAL_CONTEXT

    def test_orthogonal_axes_hit_the_ceiling_exactly(self):
        for a, b in (("z", "x"), ("z", "y"), ("x", "y")):
            r = contextual_distance(BlochAxis.named(a), BlochAxis.named(b))
            assert r.value_bits == 1.0
            assert r.sup_bits == 1.0
            assert r.normalized == 1.0
            assert r.classification is Classification.ORTHOGONAL_BASES

    def test_third_turn_anchor(self):
        # H(3/4, 1/4), real value rounded once to double
        r = contextual_distance(BlochAxis(math.pi / 3.0), BlochAxis.named("z"))
        assert r.value_bits == pytest.approx(0.8112781244591328, abs=1e-12)
        assert r.classification is Classification.PARTIAL_CONTEXT

    def test_symmetric_bitwise(self, rng):
        for _ in range(200):
            a, b = random_sphere_axis(rng), random_sphere_axis(rng)
            assert contextual_distance(a, b).value_bits == contextual_distance(b, a).value_bits

    def test_classification_boundaries(self):
        z = BlochAxis.named("z")
        near = {
            1e-3: Classification.PARTIAL_CONTEXT,
            1e-8: Classification.IDENTICAL_CONTEXT,
            math.pi / 2 - 1e-3: Classification.PARTIAL_CONTEXT,
            math.pi / 2 - 1e-8: Classification.ORTHOGONAL_BASES,
        }
        for theta, expected in near.items():
            assert contextual_distance(BlochAxis(theta), z).classification is expected

    def test_tolerance_validation(self):
        with pytest.raises(ParameterOutOfRange):
            contextual_distance(BlochAxis.named("z"), BlochAxis.named("x"), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ParameterOutOfRange):
            contextual_distance(BlochAxis.named("z"), BlochAxis(1.0), tol=tol)


class TestBasisDistance:
    def test_self_distance_is_exactly_zero(self):
        r = contextual_distance(NBasis.computational(5), NBasis.computational(5))
        assert r.value_bits == 0.0
        assert r.classification is Classification.IDENTICAL_CONTEXT

    def test_fourier_is_unbiased(self):
        for n in (2, 3, 4):
            r = contextual_distance(NBasis.computational(n), fourier_basis(n))
            assert r.sup_bits == pytest.approx(math.log2(n), abs=1e-15)
            assert r.value_bits == pytest.approx(math.log2(n), abs=1e-9)
            assert r.classification is Classification.ORTHOGONAL_BASES
            assert r.normalized == pytest.approx(1.0, abs=1e-9)

    def test_value_stays_in_range(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            r = contextual_distance(random_basis(n, rng), random_basis(n, rng))
            assert 0.0 <= r.value_bits <= r.sup_bits + 1e-12
            assert 0.0 <= r.normalized <= 1.0 + 1e-12

    def test_symmetric_up_to_grouping(self, rng):
        # mean row entropy and mean column entropy are the same double sum,
        # so only summation grouping can separate the two directions
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a, b = random_basis(n, rng), random_basis(n, rng)
            d1 = contextual_distance(a, b).value_bits
            d2 = contextual_distance(b, a).value_bits
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_outcome_relabeling_is_invisible(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a, b = random_basis(n, rng), random_basis(n, rng)
            base = contextual_distance(a, b).value_bits
            perm = rng.permutation(n)
            assert contextual_distance(NBasis(a.columns[:, perm]), b).value_bits == pytest.approx(base, abs=1e-12)
            assert contextual_distance(a, NBasis(b.columns[:, perm])).value_bits == pytest.approx(base, abs=1e-12)

    def test_column_phases_are_invisible(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a, b = random_basis(n, rng), random_basis(n, rng)
            phases = np.exp(2j * np.pi * rng.random(n))
            d1 = contextual_distance(a, b).value_bits
            d2 = contextual_distance(a, NBasis(b.columns * phases)).value_bits
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_mixed_argument_kinds(self):
        # an axis argument next to a basis argument takes the amplitude route
        r = contextual_distance(BlochAxis.named("z"), NBasis.computational(2))
        assert r.value_bits == pytest.approx(0.0, abs=1e-12)
        assert r.classification is Classification.IDENTICAL_CONTEXT

    def test_single_outcome_rejected(self):
        with pytest.raises(InvalidDimension):
            contextual_distance(NBasis.computational(1), NBasis.computational(1))


class TestDistanceCurve:
    def test_endpoint_anchors(self):
        assert qubit_distance_curve([0.0, math.pi / 2, math.pi]) == [0.0, 1.0, 0.0]

    def test_quarter_turn_anchor(self):
        # H((1 + cos(pi/4))/2, ...), real value rounded once to double
        assert qubit_distance_curve([math.pi / 4])[0] == pytest.approx(0.6008760366928561, abs=1e-12)

    def test_monotone_toward_orthogonality(self):
        thetas = np.linspace(0.0, math.pi / 2, 50)
        values = qubit_distance_curve(thetas)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_symmetric_about_quarter_turn(self, rng):
        for _ in range(100):
            theta = float(rng.random()) * math.pi
            v1, v2 = qubit_distance_curve([theta, math.pi - theta])
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_agrees_with_axis_distance(self, rng):
        for _ in range(100):
            theta = float(rng.random()) * math.pi
            phi = float(rng.random()) * 2.0 * math.pi
            by_angle = qubit_distance_curve([theta])[0]
            by_axes = contextual_distance(BlochAxis(theta, phi), BlochAxis(0.0, phi)).value_bits
            assert by_angle == pytest.approx(by_axes, abs=1e-12)


class TestClosure:
    def test_holds_on_relabeled_and_rephased_copies(self, rng):
        b = random_basis(3, rng)
        relabeled = NBasis(b.columns[:, rng.permutation(3)])
        rephased = NBasis(b.columns * np.exp(2j * np.pi * rng.random(3)))
        assert identical_context_closure(b, relabeled, rephased)

    def test_vacuous_when_premise_fails(self):
        z, x, y = (BlochAxis.named(n) for n in "zxy")
        assert identical_context_closure(z, x, y)
        assert identical_context_closure(z, z, x)

    def test_random_axis_triples(self, rng):
        for _ in range(100):
            triple = [random_sphere_axis(rng) for _ in range(3)]
            assert identical_context_closure(*triple)


def possibilities_poset() -> FinitePoset:
    # knowledge states of a three-way search: the label lists what is still
    # possible, and ruling things out moves up
    return FinitePoset.from_cover_relations(
        ["ABC", "AB", "AC", "BC", "A", "B", "C"],
        [
            ("ABC", "AB"),
            ("ABC", "AC"),
            ("ABC", "BC"),
            ("AB", "A"),
            ("AB", "B"),
            ("AC", "A"),
            ("AC", "C"),
            ("BC", "B"),
            ("BC", "C"),
        ],
    )


def remaining_bits(p: FinitePoset) -> dict:
    return {e: math.log2(len(e)) for e in p.elements}


class TestPosetOrthogonality:
    def test_disjoint_certainties_are_orthogonal(self):
        p = possibilities_poset()
        assert poset_orthogonal(p, remaining_bits(p), "A", "B")

    def test_overlapping_doubts_are_orthogonal_through_certainty(self):
        # the only common refinement of {A,B} and {A,C} is certainty about A,
        # which carries no content
        p = possibilities_poset()
        assert poset_orthogonal(p, remaining_bits(p), "AB", "AC")

    def test_comparable_states_are_not_orthogonal(self):
        p = possibilities_poset()
        assert not poset_orthogonal(p, remaining_bits(p), "ABC", "AB")

    def test_chain_counterexample(self):
        p = FinitePoset.from_cover_relations(["lo", "mid", "hi"], [("lo", "mid"), ("mid", "hi")])
        f = {"lo": 2.0, "mid": 1.0, "hi": 0.0}
        assert not poset_orthogonal(p, f, "lo", "mid")
        assert poset_orthogonal(p, f, "hi", "hi")

    def test_requires_complete_assignment(self):
        p = possibilities_poset()
        f = remaining_bits(p)
        del f["BC"]
        with pytest.raises(UnknownLabelError):
            poset_orthogonal(p, f, "A", "B")

    def test_rejects_content_growing_upward(self):
        p = FinitePoset.from_cover_relations(["lo", "hi"], [("lo", "hi")])
        with pytest.raises(ParameterOutOfRange):
            poset_orthogonal(p, {"lo": 0.0, "hi": 1.0}, "lo", "hi")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # a vee under a: content grows from a up to c, which a NaN tol let pass
        p = FinitePoset.from_cover_relations(["a", "b", "c"], [("a", "b"), ("a", "c")])
        with pytest.raises(ParameterOutOfRange):
            poset_orthogonal(p, {"a": 0.0, "b": 0.0, "c": 1.0}, "b", "c", tol=tol)
