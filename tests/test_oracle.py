import math
from fractions import Fraction
from itertools import cycle

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
from qaplandscape.core import _integer_values, neighborhood_size, passes
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    component_value,
    omega,
)
from qaplandscape.oracle import (
    enumerate_space,
    moments,
    population_variance,
    space_points,
)
from conftest import all_perms, seeded_instance, single_entry_tensor


def brute_mean(values, n):
    """neighborhood_avg_brute of a function that takes the values, in turn
    and repeated as needed, on the swap neighbors of the size-n identity."""
    x = Permutation.identity(n)
    table = dict(zip((y.mapping for y in x.neighbors()), cycle(values)))
    return neighborhood_avg_brute(lambda y: table[y.mapping], x)


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

    # Float sums of a constant need not cancel; the exact variance of a
    # constant, float or not, is zero.
    @pytest.mark.parametrize("value", [0.1, 0.7, 3])
    def test_constant_values_are_flagged(self, value):
        report = check_elementary(lambda x: value, 4)
        assert report.is_elementary and report.constant
        assert report.fitted_k is None

    # Raw float moments of values 1 ulp apart cancel to zero; their exact
    # variance does not, so the function is not called constant.
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

    # The exact fit of float components, rounded once, is the exact k: a
    # fit in float arithmetic read 7.999999999999998 for c2 at n = 5 and
    # 14.000000000000002 for c1 at n = 7.
    @pytest.mark.parametrize("n", [5, 7])
    def test_float_components_fit_the_exact_k(self, n):
        inst = seeded_instance(n, 42).as_float()
        for m, k in zip((1, 2, 3), (2 * n, 2 * (n - 1), n)):
            report = check_elementary(lambda x, m=m: component_value(inst, m, x), n)
            assert report.is_elementary
            assert type(report.fitted_k) is float and report.fitted_k == k

    # Float and mixed float/int/Fraction functions: the report is the exact
    # least-squares fit over the values' Fractions, correctly rounded. Each
    # function is a weighted assignment (elementary, k = n) plus, when
    # noise is drawn, a pair indicator that is not elementary.
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_fit_is_the_rounded_exact_fit(self, data):
        n = data.draw(st.integers(4, 6))
        entry = data.draw(st.sampled_from([
            st.floats(-1e6, 1e6, allow_nan=False),
            st.one_of(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.integers(-10**6, 10**6),
                st.fractions(min_value=-100, max_value=100, max_denominator=50),
            ),
        ]))
        weights = data.draw(st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        noise = data.draw(st.one_of(st.just(0), entry))

        def f(x):
            value = sum(row[p] for row, p in zip(weights, x.mapping))
            return value + noise * (x(0) == 1 and x(1) == 0)

        points = list(space_points(n))
        raw = [f(x) for x in points]
        values = list(map(Fraction, raw))
        report = check_elementary(f, n)
        if len(set(values)) == 1:
            assert report.constant and report.is_elementary
            return
        index = {x.mapping: i for i, x in enumerate(points)}
        d = neighborhood_size(n)
        means = [sum(values[index[y.mapping]] for y in x.neighbors()) / d for x in points]
        count = len(points)
        mean, mean_g = sum(values) / count, sum(means) / count
        var = sum((v - mean) ** 2 for v in values)
        a = sum((v - mean) * (g - mean_g) for v, g in zip(values, means)) / var
        b = mean_g - a * mean
        residual = max(abs(g - a * v - b) for v, g in zip(values, means))
        exact = not any(isinstance(v, float) for v in raw)
        rounded = (lambda q: q) if exact else float
        scale = max(1, rounded(max(map(abs, values))))
        elementary = passes(rounded(residual), scale, exact)
        assert not report.constant and report.is_elementary is elementary
        assert repr(report.max_residual) == repr(rounded(residual))
        want_k = rounded(d * (1 - a)) if elementary else None
        assert repr(report.fitted_k) == repr(want_k)

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
        # Exact before rounding: a plain left-to-right sum loses the first
        # 1.0 and gives 0.25.
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

    # moments and the neighborhood mean share one rescaling to a common
    # denominator; each numerator over it must give back its value.
    def test_mixed_denominators_share_one_denominator(self):
        values = [Fraction(1, 4), Fraction(-5, 6), 3, Fraction(7, 10), -2]
        numerators, d, exact = _integer_values(values)
        assert d == 60 and exact
        assert [Fraction(num, d) for num in numerators] == values
        mean = moments(values)[0]
        assert mean == sum(map(Fraction, values)) / 5
        assert type(mean) is Fraction
        mean = brute_mean(values, 5)  # each value twice over 10 neighbors
        assert mean == sum(map(Fraction, values)) / 5
        assert type(mean) is Fraction
        assert brute_mean([1, 2, 4], 3) == Fraction(7, 3)

    # A float mean or variance is the exact one of the values, rounded
    # once: bit for bit the correctly rounded Fraction result, whatever the
    # order of the values.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1e100, 1e100, allow_nan=False), min_size=1, max_size=40),
        st.lists(st.one_of(
            st.integers(-10**12, 10**12),
            st.fractions(min_value=-100, max_value=100, max_denominator=50),
        ), max_size=10),
    )
    def test_float_means_are_the_rounded_exact_means(self, floats, others):
        values = floats + others
        count = len(values)
        mean = sum(map(Fraction, values)) / count
        variance = sum((Fraction(v) - mean) ** 2 for v in values) / count
        want = [float(mean).hex(), float(variance).hex()]
        for order in (values, values[::-1]):
            got = moments(order)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == want
        # The 15 neighbors at n = 6 take the values in turn.
        shown = [v for v, _ in zip(cycle(values), range(neighborhood_size(6)))]
        neighborhood = brute_mean(values, 6)
        assert type(neighborhood) is float
        assert neighborhood.hex() == float(sum(map(Fraction, shown)) / len(shown)).hex()

    # A float with no exact value fails closed: the mean is the fsum
    # quotient, the variance NaN.
    @pytest.mark.parametrize("values,mean", [
        ([1.0, math.inf, 2], math.inf),
        ([Fraction(1, 2), -math.inf, 1.5], -math.inf),
        ([math.inf, 1.0, -math.inf], math.nan),
        ([0.5, math.nan, 3], math.nan),
    ])
    def test_non_finite_values_give_non_finite_results(self, values, mean):
        got_mean, variance = moments(values)
        neighborhood = brute_mean(values, 3)
        assert math.isnan(variance)
        if math.isnan(mean):
            assert math.isnan(got_mean) and math.isnan(neighborhood)
        else:
            assert got_mean == neighborhood == mean

    # An int beyond the float range among floats is exact: its mean and
    # variance are the exact ones, read as inf beyond the float range.
    def test_exact_values_beyond_the_float_range_read_inf(self):
        values = [1.5, -10**400, 2.0]
        assert moments(values) == (-math.inf, math.inf)
        assert brute_mean(values, 3) == -math.inf

    def test_population_variance_helper(self):
        assert population_variance([1, 1, 1]) == 0
        assert population_variance([0, 2]) == 1
        assert population_variance([0.0, 2.0]) == pytest.approx(1.0)
