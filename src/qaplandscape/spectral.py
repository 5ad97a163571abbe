"""Random-walk autocorrelation: empirical estimation on uniform swap walks
and the theoretical prediction assembled from the decomposition.

Model: along a uniform random swap walk the lag-s autocorrelation of the
objective is r(s) = sum_m W_m (1 - k_m/d)^s, a variance-weighted mixture of
the per-component geometric decays, with W_m = Var(c_m) / Var(f). The decay
rates reduce to 1 - 4/(n-1), 1 - 4/n and 1 - 2/(n-1). The ruggedness
coefficient is defined here as xi = 1/(1 - r(1)) = 1/(sum_m W_m k_m/d);
since every k_m/d lies in [2/(n-1), 4/(n-1)] this forces
(n-1)/4 <= xi <= (n-1)/2 for every instance with positive variance.
Competing definitions of the coefficient exist (for example a fitted
exponential correlation length); this module commits to the 1/(1 - r(1))
form and validates it against walks and small-n enumeration.

When variances come from a sample instead of full enumeration, the weights
are normalized by the sum of the three component variances so that they
always add to one; under enumeration that sum provably equals Var(f) and
the normalization is a no-op (asserted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .core import Permutation, Scalar, div, neighborhood_size
from .decomposition import OmegaKind, Problem, characteristic_constant
from .oracle import DEFAULT_ENUMERATION_CAP, variance_triple

DEFAULT_SAMPLES = 2000


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
    start = x
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    values = [problem.fitness(x)]
    for _ in range(steps):
        u, v = pairs[rng.randrange(len(pairs))]
        x = x.swap(u, v)
        values.append(problem.fitness(x))
    return WalkSeries(tuple(values), seed, start, steps)


def empirical_autocorr(series: WalkSeries, max_lag: int) -> List[float]:
    """Biased sample autocorrelation of the walk at lags 0..max_lag:
    r(s) = sum_t (f_t - m)(f_{t+s} - m) / sum_t (f_t - m)^2."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag * 10 >= series.steps:
        raise ValueError(
            f"max_lag {max_lag} too large for a {series.steps}-step walk; "
            "need max_lag < steps/10"
        )
    arr = np.array([float(v) for v in series.values], dtype=float)
    dev = arr - arr.mean()
    denom = float(np.dot(dev, dev))
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    out = []
    for s in range(max_lag + 1):
        if s == 0:
            out.append(1.0)
        else:
            out.append(float(np.dot(dev[:-s], dev[s:])) / denom)
    return out


def component_weights(
    problem: Problem,
    variance_source: str = "exact",
    cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Tuple[Scalar, Scalar, Scalar]:
    """Variance shares (W1, W2, W3) of the three components, summing to 1."""
    if variance_source == "exact":
        vt = variance_triple(problem, cap=cap)
    elif variance_source == "sampled":
        vt = variance_triple(problem, cap=0, samples=samples, seed=seed)
    else:
        raise ValueError(f"variance_source must be exact or sampled, got {variance_source!r}")
    total = vt.c1 + vt.c2 + vt.c3
    if total == 0:
        raise ValueError("objective has zero variance; weights are undefined")
    if variance_source == "exact" and problem.exact:
        assert total == vt.total, "component variances must add to Var(f)"
    return tuple(div(v, total, problem.exact) for v in (vt.c1, vt.c2, vt.c3))


def decay_rates(n: int, exact: bool = True) -> Tuple[Scalar, Scalar, Scalar]:
    """Per-step retention factors 1 - k_m/d of the three components."""
    d = neighborhood_size(n)
    ks = [characteristic_constant(OmegaKind(m), n) for m in (1, 2, 3)]
    return tuple(1 - div(k, d, exact) for k in ks)


def _predicted_autocorr(weights, n: int, exact: bool, max_lag: int) -> List[Scalar]:
    lams = decay_rates(n, exact=exact)
    return [
        sum(wv * lam**s for wv, lam in zip(weights, lams))
        for s in range(max_lag + 1)
    ]


def _coefficient(weights, n: int, exact: bool) -> CoefficientBounds:
    ks = [characteristic_constant(OmegaKind(m), n) for m in (1, 2, 3)]
    d = neighborhood_size(n)
    rate = sum(div(wv * k, d, exact) for wv, k in zip(weights, ks))
    return CoefficientBounds(1 / rate, div(n - 1, 4, exact), div(n - 1, 2, exact))


def theoretical_autocorr(
    problem: Problem,
    max_lag: int,
    variance_source: str = "exact",
    cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> List[Scalar]:
    """Predicted walk autocorrelation r(s) = sum_m W_m (1 - k_m/d)^s
    for s = 0..max_lag."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    weights = component_weights(problem, variance_source, cap, samples, seed)
    return _predicted_autocorr(weights, problem.n, problem.exact, max_lag)


def autocorr_coefficient(
    problem: Problem,
    variance_source: str = "exact",
    cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> CoefficientBounds:
    """Ruggedness coefficient xi = 1/(1 - r(1)) with its guaranteed bounds
    ((n-1)/4, (n-1)/2)."""
    weights = component_weights(problem, variance_source, cap, samples, seed)
    return _coefficient(weights, problem.n, problem.exact)


def analyze_autocorr(
    problem: Problem,
    steps: int,
    walk_seed: int,
    max_lag: int,
    variance_source: str = "auto",
    cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = DEFAULT_SAMPLES,
    x0: Optional[Permutation] = None,
) -> Tuple[AutocorrReport, WalkSeries]:
    """Run a walk and assemble the empirical-vs-theoretical report."""
    if variance_source == "auto":
        variance_source = "exact" if problem.n <= cap else "sampled"
    series = random_walk(problem, steps, walk_seed, x0=x0)
    empirical = empirical_autocorr(series, max_lag)
    weights = component_weights(problem, variance_source, cap=cap, samples=samples)
    coeff = _coefficient(weights, problem.n, problem.exact)
    report = AutocorrReport(
        empirical=empirical,
        theoretical=_predicted_autocorr(weights, problem.n, problem.exact, max_lag),
        weights=weights,
        coefficient=coeff.xi,
        bounds=(coeff.lo, coeff.hi),
    )
    return report, series
