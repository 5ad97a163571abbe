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

The variances come from decomposition.component_variances, a closed form
in the instance data, so the weights, r(s) and xi are exact (in rational
mode) at every n. For a QapInstance it costs two dot products per matrix
over the n^2 entries and O(n) besides, in integer arithmetic: in float mode
each variance is the correctly rounded float of the exact one (inf beyond
the float range), so the weights are the float quotients of correctly
rounded variances.

The walk costs O(n) per step: it evaluates the objective once and then adds
each swap's change (`swap_delta`). In float mode the recorded values are
that running sum, which agrees with a full recompute to 1e-9 relative
rather than bit for bit.

The estimator's sums (the mean, the denominator, each lag) are correctly
rounded by math.fsum, so r(s) is the same on every platform and
interpreter, and for a series and its reversal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import List, NamedTuple, Optional, Tuple

from .core import Permutation, Scalar, div, fsum, neighborhood_size, sum_of
from .decomposition import KIND_CONSTANTS, Problem, component_variances


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
    generator seeded with `seed` (pairs indexed in lexicographic order).
    When x0 is omitted the start is a uniform random permutation drawn from
    the same seed stream. Identical arguments replay identical series.

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
    for _ in range(steps):
        u, v = pairs[rng.randrange(len(pairs))]
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


def component_weights(problem: Problem) -> Tuple[Scalar, Scalar, Scalar]:
    """Variance shares W_m = Var(c_m) / Var(f) of the three components,
    which add up to 1."""
    vt = component_variances(problem)
    if vt.total == 0:
        raise ValueError("objective has zero variance; weights are undefined")
    return tuple(div(v, vt.total, problem.exact) for v in (vt.c1, vt.c2, vt.c3))


def _wave_constants(n: int) -> List[int]:
    return [KIND_CONSTANTS[m](n).k for m in (1, 2, 3)]


def decay_rates(n: int, exact: bool = True) -> Tuple[Scalar, Scalar, Scalar]:
    """Per-step retention factors 1 - k_m/d of the three components."""
    d = neighborhood_size(n)
    return tuple(1 - div(k, d, exact) for k in _wave_constants(n))


def _predicted_autocorr(weights, n: int, exact: bool, max_lag: int) -> List[Scalar]:
    lams = decay_rates(n, exact=exact)
    return [
        sum_of((wv * lam**s for wv, lam in zip(weights, lams)), exact)
        for s in range(max_lag + 1)
    ]


def _coefficient(weights, n: int, exact: bool) -> CoefficientBounds:
    d = neighborhood_size(n)
    rate = sum_of(
        (div(wv * k, d, exact) for wv, k in zip(weights, _wave_constants(n))), exact
    )
    return CoefficientBounds(1 / rate, div(n - 1, 4, exact), div(n - 1, 2, exact))


def theoretical_autocorr(problem: Problem, max_lag: int) -> List[Scalar]:
    """Predicted walk autocorrelation r(s) = sum_m W_m (1 - k_m/d)^s
    for s = 0..max_lag."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    weights = component_weights(problem)
    return _predicted_autocorr(weights, problem.n, problem.exact, max_lag)


def autocorr_coefficient(problem: Problem) -> CoefficientBounds:
    """Ruggedness coefficient xi = 1/(1 - r(1)) with its guaranteed bounds
    ((n-1)/4, (n-1)/2)."""
    return _coefficient(component_weights(problem), problem.n, problem.exact)


def analyze_autocorr(
    problem: Problem,
    steps: int,
    walk_seed: int,
    max_lag: int,
) -> Tuple[AutocorrReport, WalkSeries]:
    """Run a walk from a random start and assemble the
    empirical-vs-theoretical report."""
    series = random_walk(problem, steps, walk_seed)
    empirical = empirical_autocorr(series, max_lag)
    weights = component_weights(problem)
    coeff = _coefficient(weights, problem.n, problem.exact)
    report = AutocorrReport(
        empirical=empirical,
        theoretical=_predicted_autocorr(weights, problem.n, problem.exact, max_lag),
        weights=weights,
        coefficient=coeff.xi,
        bounds=(coeff.lo, coeff.hi),
    )
    return report, series
