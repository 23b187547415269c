import math

import numpy as np
import pytest

from orderctx import (
    HARTLEY,
    SHANNON,
    ClassicalState,
    InvalidStateError,
    MeasurementFn,
    ParameterOutOfRange,
    bayesian_leq,
    hartley_bits,
    is_monotone_on,
    kernel_at_maximal,
    linear_combo,
    mixed,
    pure,
    sample_ordered_pair,
    sample_state,
    shannon_bits,
    verify_axioms,
)


class TestShannonValues:
    def test_fair_coin(self):
        assert shannon_bits([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert shannon_bits([1.0, 0.0, 0.0]) == 0.0

    def test_quarter_split(self):
        # 2 - (3/4)log2(3), evaluated at 60-digit precision and rounded once
        assert shannon_bits([0.75, 0.25]) == 0.8112781244591328

    def test_nine_tenths(self):
        assert shannon_bits([0.9, 0.1]) == 0.46899559358928122

    def test_uniform_hits_log2(self):
        for m in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
            assert shannon_bits(np.full(m, 1.0 / m)) == math.log2(m)
        # m=11: accumulation lands one ulp off log2(11); pinned, not hidden
        assert shannon_bits(np.full(11, 1.0 / 11)) == pytest.approx(math.log2(11), abs=1e-12)

    def test_permutation_is_bit_exact(self, rng):
        for _ in range(300):
            x = sample_state(int(rng.integers(2, 9)), rng).probs
            assert shannon_bits(rng.permutation(x)) == shannon_bits(x)

    def test_zero_padding_is_bit_exact(self, rng):
        for _ in range(300):
            x = sample_state(int(rng.integers(2, 7)), rng).probs
            padded = np.insert(x, int(rng.integers(0, len(x) + 1)), 0.0)
            assert shannon_bits(padded) == shannon_bits(x)

    def test_accepts_states_and_arrays(self):
        assert shannon_bits(mixed(2)) == shannon_bits([0.5, 0.5])


class TestHartleyValues:
    def test_counts_support(self):
        assert hartley_bits([0.5, 0.5, 0.0]) == 1.0
        assert hartley_bits([0.2, 0.3, 0.5]) == math.log2(3)
        assert hartley_bits(pure(4, 2)) == 0.0

    def test_ignores_magnitudes(self, rng):
        for _ in range(100):
            x = sample_state(5, rng)
            assert hartley_bits(x) == math.log2(5)


class TestMeasurementFn:
    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterOutOfRange):
            MeasurementFn(-0.1, 0.5)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 1.0), (math.inf, 0.0), (1.0, math.nan), (0.0, math.inf), (1.0, -math.inf)]
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ParameterOutOfRange):
            MeasurementFn(*weights)

    def test_rejects_zero_measure(self):
        with pytest.raises(ParameterOutOfRange):
            MeasurementFn(0.0, 0.0)

    def test_describe(self):
        assert "shannon" in SHANNON.describe()
        assert "hartley" in HARTLEY.describe()

    def test_evaluate_combines_linearly(self, rng):
        f = linear_combo(0.25, 0.75)
        for _ in range(50):
            x = sample_state(4, rng)
            expected = 0.25 * shannon_bits(x) + 0.75 * hartley_bits(x)
            assert f.evaluate(x) == pytest.approx(expected, abs=1e-15)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SHANNON.shannon_weight = 2.0


class TestAxiomBattery:
    def test_shannon_passes_everything(self):
        report = verify_axioms(SHANNON, sample_count=400, seed=11)
        assert report.all_passed()
        assert report.measure == SHANNON.describe()
        assert report.samples == 400
        assert report.seed == 11

    def test_hartley_passes_everything(self):
        # support size is multiplicative under products and can only shrink
        # under marginalization, so the whole battery holds here too
        report = verify_axioms(HARTLEY, sample_count=400, seed=11)
        assert report.all_passed()

    def test_convex_combo_passes(self):
        report = verify_axioms(linear_combo(0.5, 0.5), sample_count=300, seed=7)
        assert report.all_passed()

    def test_scaled_measure_fails_normalization_with_witness(self):
        report = verify_axioms(linear_combo(2.0, 0.0), sample_count=50, seed=3)
        assert not report.normalization.passed
        assert report.normalization.witness == pytest.approx(2.0)
        assert not report.all_passed()

    def test_rejects_empty_battery(self):
        with pytest.raises(ParameterOutOfRange):
            verify_axioms(SHANNON, sample_count=0)

    def test_reports_are_reproducible(self):
        a = verify_axioms(SHANNON, sample_count=100, seed=5)
        b = verify_axioms(SHANNON, sample_count=100, seed=5)
        assert a == b


class TestMonotonicity:
    def test_shannon_decreases_up_the_order(self, rng):
        pairs = [sample_ordered_pair(int(rng.integers(2, 7)), rng) for _ in range(500)]
        assert is_monotone_on(SHANNON, pairs).passed
        assert is_monotone_on(HARTLEY, pairs).passed

    def test_failure_carries_witness(self):
        # feed a deliberately reversed pair
        result = is_monotone_on(SHANNON, [(pure(2, 0), mixed(2))])
        assert not result.passed
        x, y = result.witness
        assert shannon_bits(x) < shannon_bits(y)


class TestKernel:
    def test_shannon_vanishes_exactly_at_point_masses(self, rng):
        for i in range(4):
            assert kernel_at_maximal(SHANNON, pure(4, i))
        for _ in range(100):
            x = sample_state(int(rng.integers(2, 7)), rng)
            assert kernel_at_maximal(SHANNON, x)

    def test_near_pure_states_respect_tolerance(self):
        # entropy decays like eps*log2(1/eps), so the equivalence needs eps
        # well inside the tolerance, not merely at it
        x = ClassicalState([1.0 - 1e-15, 1e-15])
        assert kernel_at_maximal(SHANNON, x)
        # at eps=1e-13 purity holds but entropy (~4.5e-12) is still visible,
        # and the check honestly reports the mismatch
        assert not kernel_at_maximal(SHANNON, ClassicalState([1.0 - 1e-13, 1e-13]))

    def test_detects_degenerate_measure(self):
        # a measure that is identically tiny on some mixed state would break
        # the equivalence; simulate with a state the measure misses
        spiky = ClassicalState([1.0 - 1e-5, 1e-5])
        # shannon(spiky) is ~2e-4 bits, usefully nonzero, and spiky is not pure
        assert kernel_at_maximal(SHANNON, spiky)
        # hartley sees the full support, also nonzero: equivalence again
        assert kernel_at_maximal(HARTLEY, spiky)


class TestOrderCompatibility:
    def test_entropy_sorts_uniform_support_chain(self):
        # the canonical refinement chain loses exactly one bit of headroom per
        # support element; entropies must strictly decrease along it
        chain = [ClassicalState(np.concatenate([np.zeros(k), np.full(6 - k, 1.0 / (6 - k))])) for k in range(6)]
        values = [shannon_bits(s) for s in chain]
        assert values == sorted(values, reverse=True)
        for a, b in zip(chain, chain[1:]):
            assert bayesian_leq(a, b)

    def test_mixing_toward_target_never_gains_entropy(self, rng):
        from orderctx import mixing_path

        for _ in range(200):
            n = int(rng.integers(2, 7))
            x, y = sample_ordered_pair(n, rng)
            t = float(rng.random())
            mid = mixing_path(x, y, t)
            assert shannon_bits(x) + 1e-12 >= shannon_bits(mid) >= shannon_bits(y) - 1e-12
