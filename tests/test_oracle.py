import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import (
    Permutation,
    QapInstance,
    check_elementary,
    component_variances,
    decompose,
    neighborhood_avg_brute,
    neighborhood_avg_wave,
    variance_triple,
)
from qaplandscape.core import neighborhood_size
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    component_value,
    omega,
)
from qaplandscape.oracle import enumerate_space, moments, population_variance, space_points
from conftest import all_perms, seeded_instance, single_entry_tensor


class TestNeighborhoodAvgBrute:
    def test_constant_function(self):
        x = Permutation.identity(5)
        assert neighborhood_avg_brute(lambda y: 7, x) == 7

    def test_position_indicator_hit(self):
        # x(i) = p: n - 1 neighbors lose the match, the rest keep it
        n, d = 5, neighborhood_size(5)
        x = Permutation.identity(n)
        avg = neighborhood_avg_brute(lambda y: int(y(2) == 2), x)
        assert avg == Fraction(d - n + 1, d) == Fraction(6, 10)

    def test_position_indicator_miss(self):
        # x(i) != p: exactly one neighbor creates the match
        n, d = 5, neighborhood_size(5)
        x = Permutation.identity(n)
        avg = neighborhood_avg_brute(lambda y: int(y(2) == 3), x)
        assert avg == Fraction(1, d) == Fraction(1, 10)


class TestEnumerateSpace:
    def test_constant_function(self):
        stats = enumerate_space(lambda x: 5, 4)
        assert stats.mean == 5
        assert stats.variance == 0
        assert stats.count == 24

    def test_position_indicator_mean(self):
        stats = enumerate_space(lambda x: int(x(1) == 3), 4)
        assert stats.mean == Fraction(1, 4)

    def test_omega1_mean(self):
        stats = enumerate_space(
            lambda x: omega(1, 0, 1, 2, 3, x), 4
        )
        assert stats.mean == -1

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_space(lambda x: 0, 9)
        with pytest.raises(ValueError, match="cap"):
            enumerate_space(lambda x: 0, 5, cap=4)

    def test_lexicographic_iteration(self):
        seen = [x.mapping for x in space_points(3)]
        assert seen == sorted(seen)
        assert len(seen) == 6

    def test_float_values(self):
        stats = enumerate_space(lambda x: float(x(0) == 0), 4)
        assert stats.mean == pytest.approx(0.25)
        assert stats.variance == pytest.approx(0.25 * 0.75)


class TestCheckElementary:
    def test_position_indicator(self):
        report = check_elementary(lambda x: int(x(1) == 2), 5)
        assert report.is_elementary
        assert report.fitted_k == 5
        assert report.max_residual == 0
        assert not report.constant

    @pytest.mark.parametrize("m,k", [(1, 10), (2, 8), (3, 5)])
    def test_omega_kinds_at_n5(self, m, k):
        report = check_elementary(lambda x: omega(m, 0, 2, 1, 4, x), 5)
        assert report.is_elementary
        assert report.fitted_k == k

    def test_constant_function_flagged(self):
        report = check_elementary(lambda x: 3, 4)
        assert report.is_elementary
        assert report.constant
        assert report.fitted_k is None
        assert report.max_residual == 0

    # Float sums of a constant need not cancel; constancy is read off the values.
    @pytest.mark.parametrize("value", [0.1, 0.7, 3])
    def test_constant_values_are_flagged(self, value):
        report = check_elementary(lambda x: value, 4)
        assert report.is_elementary and report.constant
        assert report.fitted_k is None

    # Raw float moments of values 1 ulp apart cancel to zero; the fit must
    # neither call the function constant nor divide by that zero.
    def test_values_one_ulp_apart_are_not_constant(self):
        report = check_elementary(lambda x: 1e8 + 1e-8 * (x(0) == 0), 4)
        assert not report.constant

    def test_full_objective_not_elementary(self):
        inst = seeded_instance(5, 42)
        report = check_elementary(inst.fitness, 5)
        assert not report.is_elementary
        assert report.max_residual > 0
        assert report.worst_point is not None
        assert sorted(report.worst_point.mapping) == list(range(5))

    def test_components_elementary_on_generic_instance(self):
        inst = seeded_instance(5, 42)
        expected = {1: 10, 2: 8, 3: 5}
        for m in (1, 2, 3):
            report = check_elementary(
                lambda x, m=m: component_value(inst, m, x), 5
            )
            assert report.is_elementary
            assert report.fitted_k == expected[m]

    def test_float_mode_objective(self):
        inst = seeded_instance(4, 42).as_float()
        for m in (1, 2, 3):
            report = check_elementary(
                lambda x, m=m: component_value(inst, m, x), 4
            )
            assert report.is_elementary
            assert report.fitted_k == pytest.approx(
                {1: 8, 2: 6, 3: 4}[m], rel=1e-6
            )

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            check_elementary(lambda x: 0, 9)

    def test_nan_is_never_elementary(self):
        report = check_elementary(lambda x: math.nan, 4)
        assert not report.is_elementary and report.fitted_k is None
        assert math.isnan(report.max_residual)

    def test_inf_is_never_elementary(self):
        report = check_elementary(lambda x: math.inf, 4)
        assert not report.is_elementary
        # Finite values with one infinite point: the tolerance is infinite.
        report = check_elementary(
            lambda x: math.inf if x.mapping[0] == 0 else float(x.mapping[1]), 4
        )
        assert not report.is_elementary


class TestVarianceTriple:
    def test_zero_instance(self):
        inst = QapInstance([[0] * 4] * 4, [[0] * 4] * 4)
        assert variance_triple(inst) == (0, 0, 0, 0)

    def test_orthogonality_n5(self):
        inst = seeded_instance(5, 7)
        vt = variance_triple(inst)
        assert vt.c1 + vt.c2 + vt.c3 == vt.total
        assert vt.c1 > 0 and vt.c2 > 0 and vt.c3 > 0

    def test_single_entry_tensor_matches_direct_enumeration(self):
        n = 4
        t = single_entry_tensor(n, 0, 1, 2, 3)
        vt = variance_triple(t)
        perms = all_perms(n)
        for m, got in zip((1, 2, 3), (vt.c1, vt.c2, vt.c3)):
            values = [
                Fraction(
                    omega(m, 0, 1, 2, 3, x),
                    KIND_CONSTANTS[m](n).den,
                )
                for x in perms
            ]
            mean = sum(values) / len(values)
            direct = sum((v - mean) ** 2 for v in values) / len(values)
            assert got == direct

    @pytest.mark.parametrize("n", [4, 5])
    def test_component_covariances_vanish(self, n):
        inst = seeded_instance(n, 5)
        perms = all_perms(n)
        triples = [decompose(inst, x) for x in perms]
        count = len(perms)
        means = [
            Fraction(sum(t[m] for t in triples), count) for m in range(3)
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                cov = sum(
                    (t[a] - means[a]) * (t[b] - means[b]) for t in triples
                )
                assert cov == 0

    def test_closed_form_matches_enumeration(self):
        for seed in (5, 6):
            inst = seeded_instance(6, seed)
            vt = variance_triple(inst)
            assert component_variances(inst) == vt
            assert all(isinstance(v, Fraction) and v > 0 for v in vt)

    def test_cap_without_samples(self):
        inst = seeded_instance(9, 3)
        with pytest.raises(ValueError, match="cap"):
            variance_triple(inst, cap=8)


class TestCrossChecks:
    @pytest.mark.parametrize("n", [4, 5])
    def test_brute_equals_wave_everywhere(self, n):
        inst = seeded_instance(n, 21)
        for x in all_perms(n):
            assert neighborhood_avg_brute(inst.fitness, x) == \
                neighborhood_avg_wave(inst, x)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_enumerated_mean_matches_closed_form_total(self, n):
        from qaplandscape import average_triple

        inst = seeded_instance(n, 2)
        stats = enumerate_space(inst.fitness, n)
        assert stats.mean == average_triple(inst).total

    def test_moments_exact_and_float(self):
        mean, variance = moments([1, 2, 4])
        assert (mean, variance) == (Fraction(7, 3), Fraction(14, 9))
        assert isinstance(mean, Fraction) and isinstance(variance, Fraction)
        # fsum: a plain left-to-right sum loses the first 1.0 and gives 0.25.
        mean, variance = moments([1e16, 1.0, -1e16, 1.0])
        assert mean == 0.5
        assert isinstance(variance, float)

    # The exact branch sums over one common denominator in integers; the
    # result must equal the literal Fraction sums, type included.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(-10**6, 10**6),
            st.fractions(min_value=-100, max_value=100, max_denominator=50),
        ),
        min_size=1, max_size=30,
    ))
    def test_exact_moments_equal_literal_fraction_sums(self, values):
        count = len(values)
        mean = sum(Fraction(v) for v in values) / count
        variance = sum((Fraction(v) - mean) ** 2 for v in values) / count
        got = moments(values)
        assert got == (mean, variance)
        assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("values", [
        [7], [Fraction(-3, 4)], [-2, Fraction(1, 3), Fraction(-5, 6)],
        [Fraction(1, 4), Fraction(1, 6), Fraction(-1, 10), 3],
    ])
    def test_exact_moments_on_small_mixes(self, values):
        mean = sum(map(Fraction, values)) / len(values)
        variance = sum((Fraction(v) - mean) ** 2 for v in values) / len(values)
        assert moments(values) == (mean, variance)

    def test_population_variance_helper(self):
        assert population_variance([1, 1, 1]) == 0
        assert population_variance([0, 2]) == 1
        assert population_variance([0.0, 2.0]) == pytest.approx(1.0)
