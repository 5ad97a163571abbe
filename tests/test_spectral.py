import json
import math
import random
from fractions import Fraction

import pytest

from qaplandscape import spectral
from qaplandscape import (
    GeneralTensor,
    Permutation,
    QapInstance,
    WalkSeries,
    analyze_autocorr,
    autocorr_coefficient,
    average_triple,
    empirical_autocorr,
    generate_instance,
    random_walk,
    theoretical_autocorr,
    variance_triple,
)
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import component_variances, omega
from qaplandscape.qaplib import parse_qaplib
from qaplandscape.spectral import component_weights, decay_rates
from conftest import (
    exact_twin,
    rounded,
    seeded_instance,
    tensor_with,
    two_decimal_instance,
    zero_psi,
)
from test_golden import decimal_instance_text

SQUARE_OVERFLOW = (
    "4\n2.9e80 1.8e80 4.2e80 2.2e80\n1.5e80 4.2e80 8.3e80 7.4e80\n"
    "7.1e80 2.8e80 5.3e80 3.2e80\n2.4e80 1.8e80 2.7e80 8.4e80\n"
    "7.6e80 7.5e80 7.4e80 2.5e80\n3.5e80 6.0e80 6.9e80 7.8e80\n"
    "8.0e80 1.7e80 5.8e80 6.4e80\n5.0e80 2.4e80 4.8e80 1.7e80\n"
)


def diagonal_tensor(n, seed):
    rng = random.Random(seed)
    psi = zero_psi(n)
    for i in range(n):
        for p in range(n):
            psi[i][i][p][p] = rng.randint(0, 9)
    return GeneralTensor(psi)


def pure_first_kind_tensor(n, a, b, c, e):
    """Coefficients realizing n times the first-kind five-case function.

    Writing A, B for the two pair indicators and P1, P2, Q1, Q2 for the
    four single-position indicators, the first-kind function equals
    n A - n B - P1 - P2 + Q1 + Q2 - 1, so scaling by n gives integer
    coefficients; the constant spreads over the diagonal via
    sum_p [x(a) = p] = 1.
    """
    entries = {}

    def add(key, v):
        entries[key] = entries.get(key, 0) + v

    add((a, b, c, e), n * n)
    add((a, b, e, c), -n * n)
    add((a, a, c, c), -n)
    add((b, b, e, e), -n)
    add((a, a, e, e), n)
    add((b, b, c, c), n)
    for p in range(n):
        add((a, a, p, p), -n)
    return tensor_with(n, entries)


class TestRandomWalk:
    def test_determinism(self):
        inst = seeded_instance(6, 1)
        a = random_walk(inst, 100, seed=5)
        b = random_walk(inst, 100, seed=5)
        assert a.values == b.values
        assert a.start == b.start
        c = random_walk(inst, 100, seed=6)
        assert a.values != c.values

    def test_length_and_start(self):
        inst = seeded_instance(5, 2)
        x0 = Permutation([4, 3, 2, 1, 0])
        series = random_walk(inst, 50, seed=0, x0=x0)
        assert len(series.values) == 51
        assert series.steps == 50
        assert series.start == x0
        assert series.values[0] == inst.fitness(x0)

    def test_constant_instance(self):
        ones = [[1] * 4] * 4
        inst = QapInstance(ones, ones)
        series = random_walk(inst, 30, seed=3)
        assert len(set(series.values)) == 1

    def test_steps_validation(self):
        inst = seeded_instance(4, 1)
        with pytest.raises(ValueError):
            random_walk(inst, 0, seed=1)

    def test_start_size_validation(self):
        inst = seeded_instance(4, 1)
        with pytest.raises(ValueError):
            random_walk(inst, 5, seed=1, x0=Permutation.identity(5))

    def test_csv_export(self):
        inst = seeded_instance(4, 1)
        series = random_walk(inst, 10, seed=2)
        lines = series.to_csv().strip().split("\n")
        assert lines[0] == "step,fitness"
        assert len(lines) == 12
        assert lines[1] == f"0,{series.values[0]}"

    def test_mean_tracks_space_mean(self):
        inst = seeded_instance(10, 7)
        series = random_walk(inst, 20000, seed=13)
        values = [float(v) for v in series.values]
        total = len(values)
        mean = sum(values) / total
        closed = float(average_triple(inst).total)
        # standard error with an autocorrelation correction: successive
        # walk values are strongly dependent
        var = sum((v - mean) ** 2 for v in values) / total
        acf = empirical_autocorr(series, 30)
        factor = 1.0
        for r in acf[1:]:
            if r <= 0:
                break
            factor += 2.0 * r
        se = math.sqrt(var * factor / total)
        assert abs(mean - closed) <= 3 * se


def replayed_fitness(problem, steps, seed):
    """Full fitness of every point of the walk random_walk takes from a
    random start, replayed with Permutation.swap from the same seed."""
    n = problem.n
    rng = random.Random(seed)
    x = Permutation.random(n, rng)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    values = [problem.fitness(x)]
    for _ in range(steps):
        x = x.swap(*pairs[rng.randrange(len(pairs))])
        values.append(problem.fitness(x))
    return values


class TestIncrementalWalk:
    """random_walk adds one swap delta per step to a single full fitness."""

    def test_rational_values_equal_recompute(self):
        inst = seeded_instance(24, 5, hi=99)
        series = random_walk(inst, 3000, seed=42)
        assert list(series.values) == replayed_fitness(inst, 3000, 42)
        assert all(isinstance(v, int) for v in series.values)

    def test_tensor_walk_equals_instance_walk(self):
        r = [[Fraction(i * 6 + j - 7, 1 + (i + j) % 3) for j in range(6)]
             for i in range(6)]
        w = [[(3 * p + 5 * q) % 11 - 4 for q in range(6)] for p in range(6)]
        inst = QapInstance(r, w)
        tensor = GeneralTensor.from_qap(inst)
        series = random_walk(tensor, 500, seed=9)
        assert series.values == random_walk(inst, 500, seed=9).values
        assert list(series.values) == replayed_fitness(tensor, 500, 9)

    def test_float_values_within_tolerance_of_recompute(self):
        # Instance text with two-decimal entries, as in the float benchmark.
        rng = random.Random(12)
        matrices = "\n\n".join(
            "\n".join(" ".join(f"{rng.uniform(0, 10):.2f}" for _ in range(12))
                      for _ in range(12))
            for _ in range(2)
        )
        inst = parse_qaplib(f"12\n\n{matrices}\n")
        assert not inst.exact
        series = random_walk(inst, 10000, seed=3)
        for got, want in zip(series.values, replayed_fitness(inst, 10000, 3),
                             strict=True):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("problem", [
        seeded_instance(7, 2), GeneralTensor.from_qap(seeded_instance(5, 2)),
    ])
    def test_fitness_evaluated_once(self, monkeypatch, problem):
        calls = []
        cls = type(problem)
        original = cls.fitness
        monkeypatch.setattr(
            cls, "fitness", lambda self, x: calls.append(x) or original(self, x)
        )
        series = random_walk(problem, 200, seed=1)
        assert calls == [series.start]


class TestEmpiricalAutocorr:
    def test_lag_zero_is_one(self):
        inst = seeded_instance(5, 4)
        series = random_walk(inst, 500, seed=9)
        acf = empirical_autocorr(series, 3)
        assert acf[0] == 1.0
        assert len(acf) == 4

    def test_alternating_series(self):
        steps = 400
        values = tuple(3 if t % 2 == 0 else 9 for t in range(steps + 1))
        series = WalkSeries(values, seed=0, start=Permutation.identity(3),
                            steps=steps)
        acf = empirical_autocorr(series, 2)
        assert acf[1] == pytest.approx(-1.0, abs=0.02)
        assert acf[2] == pytest.approx(1.0, abs=0.02)

    def test_white_noise_is_uncorrelated(self):
        rng = random.Random(1234)
        steps = 4000
        values = tuple(rng.gauss(0, 1) for _ in range(steps + 1))
        series = WalkSeries(values, seed=0, start=Permutation.identity(3),
                            steps=steps)
        acf = empirical_autocorr(series, 3)
        for r in acf[1:]:
            assert abs(r) <= 3 / math.sqrt(steps)

    def test_constant_series_is_an_error(self):
        values = (5,) * 101
        series = WalkSeries(values, seed=0, start=Permutation.identity(3),
                            steps=100)
        with pytest.raises(ValueError, match="constant"):
            empirical_autocorr(series, 2)

    # Constancy is read off the values: the float deviations of a constant
    # series from its rounded mean need not be zero.
    @pytest.mark.parametrize("value", [
        Fraction(1, 3), 0.1, 1 / 3, -7.3, 0.0, 1e-300, 1e300,
    ])
    @pytest.mark.parametrize("steps", [11, 100])
    def test_every_constant_series_is_an_error(self, value, steps):
        series = WalkSeries((value,) * (steps + 1), seed=0,
                            start=Permutation.identity(3), steps=steps)
        with pytest.raises(ValueError, match="constant"):
            empirical_autocorr(series, 1)

    # Non-finite values, finite values whose squares overflow (the spike's
    # lag products stay finite, so dividing them by an infinite denominator
    # would give 0) and squares that all underflow to 0.
    @pytest.mark.parametrize("values", [
        (math.inf,) * 101,
        (math.nan,) * 101,
        (1.0, 2.0) * 50 + (math.inf,),
        (math.nan,) + (1.0, 2.0) * 50,
        (math.inf, -math.inf) * 50 + (0.0,),
        (-1e300, 1e300) * 50 + (0.0,),
        (0.0,) * 50 + (1e200,) + (0.0,) * 50,
        (0.0, 1e-170) * 50 + (0.0,),
    ], ids=["inf", "nan", "last-inf", "first-nan", "both-infinities",
            "squares-overflow", "spike", "squares-underflow"])
    def test_series_beyond_the_float_range_gives_nan_lags(self, values):
        series = WalkSeries(values, seed=0, start=Permutation.identity(3),
                            steps=100)
        acf = empirical_autocorr(series, 3)
        assert len(acf) == 4 and all(math.isnan(r) for r in acf)

    # Every sum is correctly rounded and reversal leaves the multiset of
    # terms of each sum unchanged, so the estimate is bit for bit the same.
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_reversed_series_gives_the_same_lags(self, mode):
        for seed in range(30):
            inst = seeded_instance(6, seed)
            if mode == "float":
                inst = QapInstance([[v / 7 for v in row] for row in inst.r],
                                   inst.w)
            series = random_walk(inst, 500, seed=seed)
            backwards = WalkSeries(series.values[::-1], series.seed,
                                   series.start, series.steps)
            assert empirical_autocorr(backwards, 5) == empirical_autocorr(series, 5)

    def test_max_lag_validation(self):
        inst = seeded_instance(4, 1)
        series = random_walk(inst, 50, seed=1)
        with pytest.raises(ValueError, match="max_lag"):
            empirical_autocorr(series, 5)
        with pytest.raises(ValueError):
            empirical_autocorr(series, -1)


class TestTheoreticalAutocorr:
    def test_r0_is_one_and_weights_sum_to_one(self):
        inst = seeded_instance(5, 11)
        acf = theoretical_autocorr(inst, 4)
        assert acf[0] == 1
        w = component_weights(inst)
        assert sum(w) == 1

    def test_r1_symbolic(self):
        n = 6
        inst = seeded_instance(n, 11)
        acf = theoretical_autocorr(inst, 1)
        w1, w2, w3 = component_weights(inst)
        d = Fraction(n * (n - 1), 2)
        expected = 1 - (
            w1 * Fraction(2 * n, d)
            + w2 * Fraction(2 * (n - 1), d)
            + w3 * Fraction(n, d)
        )
        assert acf[1] == expected

    def test_diagonal_tensor_pure_geometric(self):
        n = 5
        t = diagonal_tensor(n, seed=2)
        vt = variance_triple(t)
        assert vt.c1 == 0 and vt.c2 == 0 and vt.c3 > 0
        lam3 = 1 - Fraction(2, n - 1)
        acf = theoretical_autocorr(t, 4)
        assert acf == [lam3**s for s in range(5)]

    def test_zero_variance_is_an_error(self):
        ones = [[1] * 4] * 4
        inst = QapInstance(ones, ones)
        with pytest.raises(ValueError, match="variance"):
            theoretical_autocorr(inst, 3)

    # At n = 200 the exact r(1100) has about 4,410 digits, more than Python
    # writes as text by default (4,300). The prediction still forms it; only
    # the report, which prints it, refuses the lag, and that before its walk.
    def test_unprintable_exact_lag_is_refused_by_the_report_only(self, monkeypatch):
        inst = generate_instance(200, 0, 0, 9)
        assert theoretical_autocorr(inst, 1100)[-1].denominator > 10**4300

        def refuse(*args, **kwargs):
            raise AssertionError("the walk ran for an unprintable max_lag")

        monkeypatch.setattr(spectral, "random_walk", refuse)
        with pytest.raises(ValueError, match=r"r\(1100\) has more than .*--mode float"):
            analyze_autocorr(inst, steps=12000, walk_seed=0, max_lag=1100)

    def test_closed_form_weights_equal_enumeration(self):
        inst = seeded_instance(6, 3)
        vt = variance_triple(inst)
        assert component_weights(inst) == tuple(
            v / vt.total for v in (vt.c1, vt.c2, vt.c3)
        )


class TestFloatWeights:
    """Float weights are the exact shares of the float entries' exact
    values, rounded once: not quotients of rounded variances."""

    @staticmethod
    def check_correctly_rounded(inst):
        got = component_weights(inst)
        want = tuple(map(rounded, component_weights(exact_twin(inst))))
        assert [w.hex() for w in got] == [w.hex() for w in want]

    @pytest.mark.parametrize("n", [3, 4, 6, 12, 24])
    def test_shares_are_correctly_rounded(self, n):
        self.check_correctly_rounded(two_decimal_instance(n, n))

    def test_golden_instances(self):
        self.check_correctly_rounded(parse_qaplib(decimal_instance_text()))
        self.check_correctly_rounded(seeded_instance(5, 1).as_float())

    # Every variance of this instance is beyond the float range, yet each
    # share is a finite ratio.
    def test_overflowing_variances_leave_finite_weights(self, tmp_path, capsys):
        inst = parse_qaplib(SQUARE_OVERFLOW)
        assert all(map(math.isinf, component_variances(inst)))
        self.check_correctly_rounded(inst)
        path = tmp_path / "square_overflow.dat"
        path.write_text(SQUARE_OVERFLOW)
        # The walk overflows, so the command still fails.
        assert run_cli(["autocorr", "--instance", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert all(type(w) is float and math.isfinite(w) for w in results["weights"])
        assert type(results["xi"]) is float and math.isfinite(results["xi"])


class TestDecayRates:
    def test_values(self):
        n = 6
        lams = decay_rates(n)
        assert lams == (
            1 - Fraction(4, n - 1),
            1 - Fraction(4, n),
            1 - Fraction(2, n - 1),
        )

    def test_signs_small_n(self):
        # the swap graph is bipartite-like only at n=3, where the first
        # rate hits -1 exactly; for n >= 4 all rates sit strictly inside
        lams3 = decay_rates(3)
        assert lams3[0] == -1
        assert all(-1 <= lam < 1 for lam in lams3)
        for n in range(4, 12):
            assert all(-1 < lam < 1 for lam in decay_rates(n))

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_prediction_monotone_when_rates_nonnegative(self, n):
        assert all(lam >= 0 for lam in decay_rates(n))
        inst = seeded_instance(n, 5)
        acf = theoretical_autocorr(inst, 6)
        assert all(a > b for a, b in zip(acf, acf[1:]))
        assert all(v > 0 for v in acf)


class TestCoefficient:
    def test_all_variance_in_component_3(self):
        n = 5
        t = diagonal_tensor(n, seed=2)
        cb = autocorr_coefficient(t)
        assert cb.xi == Fraction(n - 1, 2)
        assert (cb.lo, cb.hi) == (Fraction(n - 1, 4), Fraction(n - 1, 2))

    def test_all_variance_in_component_1(self):
        n = 5
        a, b, c, e = 0, 2, 1, 4
        t = pure_first_kind_tensor(n, a, b, c, e)
        from conftest import all_perms

        for x in all_perms(n):
            assert t.fitness(x) == n * omega(1, a, b, c, e, x)
        vt = variance_triple(t)
        assert vt.c2 == 0 and vt.c3 == 0 and vt.c1 > 0
        cb = autocorr_coefficient(t)
        assert cb.xi == Fraction(n - 1, 4)

    @staticmethod
    def _vector(n, seed, centred=False):
        rng = random.Random(seed)
        v = [rng.randint(-9, 9) for _ in range(n)]
        if centred:
            v[0] -= sum(v)
        return v

    # Both bounds are attained by product-form instances with r = w.
    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_antisymmetric_rank_two_attains_the_lower_bound(self, n):
        a = self._vector(n, n, centred=True)
        b = self._vector(n, n + 100, centred=True)
        r = [[a[i] * b[j] - a[j] * b[i] for j in range(n)] for i in range(n)]
        inst = QapInstance(r, r)
        weights = component_weights(inst)
        assert all(isinstance(v, Fraction) for v in weights)
        assert weights == (1, 0, 0)
        assert autocorr_coefficient(inst).xi == Fraction(n - 1, 4)

    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_row_plus_column_attains_the_upper_bound(self, n):
        a = self._vector(n, n)
        c = self._vector(n, n + 100)
        r = [[a[i] + 2 * c[j] for j in range(n)] for i in range(n)]
        inst = QapInstance(r, r)
        weights = component_weights(inst)
        assert all(isinstance(v, Fraction) for v in weights)
        assert weights == (0, 0, 1)
        assert autocorr_coefficient(inst).xi == Fraction(n - 1, 2)

    def test_generic_instance_between_bounds(self):
        for n in (4, 5, 6):
            for seed in range(10):
                inst = seeded_instance(n, seed)
                cb = autocorr_coefficient(inst)
                assert cb.lo <= cb.xi <= cb.hi

    def test_zero_variance_is_an_error(self):
        inst = QapInstance([[0] * 4] * 4, [[0] * 4] * 4)
        with pytest.raises(ValueError, match="variance"):
            autocorr_coefficient(inst)


class TestAnalyzeAutocorr:
    def test_report_shape(self):
        inst = seeded_instance(5, 8)
        report, series = analyze_autocorr(inst, steps=400, walk_seed=4,
                                          max_lag=3)
        assert len(report.empirical) == 4
        assert len(report.theoretical) == 4
        assert report.empirical[0] == 1.0
        assert report.theoretical[0] == 1
        assert sum(report.weights) == 1
        assert report.bounds[0] <= report.coefficient <= report.bounds[1]
        assert series.steps == 400

    def test_exact_weights_beyond_cap(self):
        inst = seeded_instance(9, 8)
        report, _ = analyze_autocorr(inst, steps=300, walk_seed=4, max_lag=2)
        assert sum(report.weights) == 1
        assert all(isinstance(w, Fraction) and w > 0 for w in report.weights)

    def test_weights_computed_once(self, monkeypatch):
        calls = []
        original = spectral._variance_numerators
        monkeypatch.setattr(
            spectral, "_variance_numerators",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        inst = seeded_instance(5, 8)
        report, _ = analyze_autocorr(inst, steps=400, walk_seed=4, max_lag=3)
        assert len(calls) == 1
        assert report.weights == component_weights(inst)
        assert report.theoretical == theoretical_autocorr(inst, 3)
        coeff = autocorr_coefficient(inst)
        assert (report.coefficient, report.bounds) == (coeff.xi, (coeff.lo, coeff.hi))
