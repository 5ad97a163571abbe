"""Random-walk autocorrelation: empirical estimation on uniform swap walks
and the theoretical prediction assembled from the decomposition.

Model: along a uniform random swap walk the lag-s autocorrelation of the
objective is r(s) = sum_m W_m (1 - k_m/d)^s, a variance-weighted mixture of
the per-component geometric decays, with W_m = Var(c_m) / Var(f) (the
mixture form of P. F. Stadler, "Landscapes and their correlation
functions", J. Math. Chem. 20, 1996). The decay rates reduce to
1 - 4/(n-1), 1 - 4/n and 1 - 2/(n-1). The ruggedness coefficient is defined
here as xi = 1/(1 - r(1)) = 1/(sum_m W_m k_m/d); since every k_m/d lies in
[2/(n-1), 4/(n-1)] this forces (n-1)/4 <= xi <= (n-1)/2 for every instance
with positive variance. Competing definitions of the coefficient exist (for
example a fitted exponential correlation length); this module commits to
the 1/(1 - r(1)) form and validates it against walks and small-n
enumeration.

The weights and xi are exact ratios of the integer numerators of the
closed-form variances (decomposition._variance_numerators), formed once by
core._ratio: Fractions in rational mode, the correctly rounded floats in
float mode, finite where the float variances overflow. The predicted r(s)
sums the formed weights' geometric terms in the problem's own arithmetic:
an exact power (1 - k_m/d)^s grows by O(log d) bits per lag.

The walk costs O(n) per step: it evaluates the objective once and then adds
each swap's change (`swap_delta`). In float mode the recorded values are
that running sum, which agrees with a full recompute to 1e-9 relative
rather than bit for bit.

The walk's stream is fixed: random.Random(seed) shuffles the start
(Permutation.random), unless one is given, and then each step takes the pair
that rng.randrange(d) would index, read at C speed from the same stream
words (core._below). tests/test_streams.py pins the start and every value
to that randrange replay, in both modes.

The estimator's sums (the mean, the denominator, each lag) are correctly
rounded by math.fsum, so r(s) is the same on every platform and
interpreter, and for a series and its reversal.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from operator import mul
from typing import List, NamedTuple, Optional, Tuple

from .core import (
    Permutation, Scalar, _below, _ratio, fsum, neighborhood_size, sum_of,
)
from .decomposition import KIND_CONSTANTS, Problem, _variance_numerators


@dataclass(frozen=True)
class WalkSeries:
    """Objective values along one seeded uniform random swap walk.

    values[0] is the start point's value, so len(values) = steps + 1.
    """

    values: Tuple[Scalar, ...]
    seed: int
    start: Permutation
    steps: int

    def to_csv(self) -> str:
        lines = ["step,fitness"]
        lines.extend(f"{t},{v}" for t, v in enumerate(self.values))
        return "\n".join(lines) + "\n"


class CoefficientBounds(NamedTuple):
    xi: Scalar
    lo: Scalar
    hi: Scalar


@dataclass(frozen=True)
class AutocorrReport:
    """Empirical vs predicted autocorrelation for one instance and walk."""

    empirical: List[float]
    theoretical: List[Scalar]
    weights: Tuple[Scalar, Scalar, Scalar]
    coefficient: Scalar
    bounds: Tuple[Scalar, Scalar]


def random_walk(
    problem: Problem,
    steps: int,
    seed: int,
    x0: Optional[Permutation] = None,
) -> WalkSeries:
    """Walk `steps` uniform random swaps from x0, recording the objective.

    Each step draws one of the d = n(n-1)/2 position pairs uniformly from a
    generator seeded with `seed` (pairs indexed in lexicographic order, the
    index being what randrange(d) returns; core._below). When x0 is omitted
    the start is a uniform random permutation drawn first from the same seed
    stream. Identical arguments replay identical series.

    The objective is evaluated in full once, at the start; each step then
    adds the swap's change, `problem.swap_delta`, in O(n). Rational values
    therefore equal `problem.fitness` of the walked permutation exactly.
    Float values are a running sum: they agree with a full recompute to
    1e-9 relative (core.FLOAT_TOLERANCE), not bit for bit.
    """
    if steps < 1:
        raise ValueError(f"walk needs at least one step, got {steps}")
    n = problem.n
    rng = random.Random(seed)
    if x0 is None:
        x = Permutation.random(n, rng)
    else:
        if x0.n != n:
            raise ValueError(f"start size {x0.n} != instance size {n}")
        x = x0
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mapping = list(x.mapping)
    value = problem.fitness(x)
    values = [value]
    delta = problem.swap_delta
    for u, v in map(pairs.__getitem__, _below(rng, len(pairs), steps)):
        value += delta(mapping, u, v)
        mapping[u], mapping[v] = mapping[v], mapping[u]
        values.append(value)
    return WalkSeries(tuple(values), seed, x, steps)


def check_max_lag(max_lag: int, steps: int) -> None:
    """Refuse a lag range the estimator cannot serve from a walk of this
    many steps: it needs 0 <= max_lag < steps/10."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag * 10 >= steps:
        raise ValueError(
            f"max_lag {max_lag} too large for a {steps}-step walk; "
            "need max_lag < steps/10"
        )


def empirical_autocorr(series: WalkSeries, max_lag: int) -> List[float]:
    """Biased sample autocorrelation of the walk at lags 0..max_lag:
    r(s) = sum_t (f_t - m)(f_{t+s} - m) / sum_t (f_t - m)^2."""
    check_max_lag(max_lag, series.steps)
    try:
        values = list(map(float, series.values))
    except OverflowError:
        # A rational value beyond the float range fails closed, as an
        # overflowed float series does below.
        return [math.nan] * (max_lag + 1)
    if all(map(math.isfinite, values)) and min(values) == max(values):
        raise ValueError("series is constant; autocorrelation is undefined")
    mean = fsum(values) / len(values)
    dev = [v - mean for v in values]
    denom = fsum(map(mul, dev, dev))
    # An overflowed series (inf or NaN values, or squares beyond the float
    # range) and one whose squares all underflow yield NaN lags, which the
    # checks reading them fail.
    if not 0 < denom < math.inf:
        return [math.nan] * (max_lag + 1)
    return [1.0] + [fsum(map(mul, dev, dev[s:])) / denom for s in range(1, max_lag + 1)]


def _weights_and_coefficient(
    problem: Problem, undefined: str = "objective has zero variance; weights are undefined"
):
    """The variance shares W_m = Var(c_m) / Var(f), and xi = 1/(sum_m W_m
    k_m/d) = d sum_m v_m / sum_m v_m k_m with its bounds, from the integer
    variance numerators v_m (decomposition._variance_numerators). Each is
    exact before core._ratio forms it once."""
    *nums, _ = _variance_numerators(problem)
    total = sum(nums)
    if total == 0:
        raise ValueError(undefined)
    n, exact = problem.n, problem.exact
    rate = sum(map(mul, nums, _wave_constants(n)))
    return tuple(_ratio(v, total, exact) for v in nums), CoefficientBounds(
        _ratio(neighborhood_size(n) * total, rate, exact),
        _ratio(n - 1, 4, exact), _ratio(n - 1, 2, exact),
    )


def component_weights(problem: Problem) -> Tuple[Scalar, Scalar, Scalar]:
    """Variance shares W_m = Var(c_m) / Var(f) of the three components,
    which add up to 1: Fractions in rational mode, and in float mode each
    the correctly rounded exact share, finite where the float variances
    overflow."""
    return _weights_and_coefficient(problem)[0]


def _wave_constants(n: int) -> List[int]:
    return [KIND_CONSTANTS[m](n).k for m in (1, 2, 3)]


def decay_rates(n: int, exact: bool = True) -> Tuple[Scalar, Scalar, Scalar]:
    """Per-step retention factors 1 - k_m/d of the three components."""
    d = neighborhood_size(n)
    return tuple(1 - _ratio(k, d, exact) for k in _wave_constants(n))


def _predicted_autocorr(weights, n: int, exact: bool, lags) -> List[Scalar]:
    lams = decay_rates(n, exact=exact)
    return [sum_of((wv * lam**s for wv, lam in zip(weights, lams)), exact) for s in lags]


def theoretical_autocorr(problem: Problem, max_lag: int) -> List[Scalar]:
    """Predicted walk autocorrelation r(s) = sum_m W_m (1 - k_m/d)^s
    for s = 0..max_lag."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    weights = component_weights(problem)
    return _predicted_autocorr(weights, problem.n, problem.exact, range(max_lag + 1))


def autocorr_coefficient(problem: Problem) -> CoefficientBounds:
    """Ruggedness coefficient xi = 1/(1 - r(1)) with its guaranteed bounds
    ((n-1)/4, (n-1)/2)."""
    return _weights_and_coefficient(problem)[1]


def analyze_autocorr(
    problem: Problem,
    steps: int,
    walk_seed: int,
    max_lag: int,
) -> Tuple[AutocorrReport, WalkSeries]:
    """Walk from a random start and report the empirical against the
    predicted r(s). What the prediction refuses costs no walk: a
    zero-variance objective, every walk of which is constant, and in
    rational mode an r(max_lag) with more digits than Python writes as text
    (sys.get_int_max_str_digits(), 0 for no limit). That r(max_lag) is
    formed alone, before r(1..max_lag-1)."""
    check_max_lag(max_lag, steps)
    weights, coeff = _weights_and_coefficient(
        problem, "series is constant; autocorrelation is undefined")
    n, exact = problem.n, problem.exact
    last = _predicted_autocorr(weights, n, exact, [max_lag])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if exact and limit and max(abs(last[0].numerator), last[0].denominator) >= 10**limit:
        raise ValueError(f"the exact predicted r({max_lag}) has more than {limit} "
                         "digits, too many to print; use float mode (--mode float)")
    theoretical = _predicted_autocorr(weights, n, exact, range(max_lag)) + last
    series = random_walk(problem, steps, walk_seed)
    report = AutocorrReport(
        empirical=empirical_autocorr(series, max_lag),
        theoretical=theoretical,
        weights=weights,
        coefficient=coeff.xi,
        bounds=(coeff.lo, coeff.hi),
    )
    return report, series
