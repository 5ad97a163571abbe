"""Self-check harness: every closed-form identity of the decomposition is
replayed against literal enumeration on one instance and reported as a
named residual.

In rational mode every residual must be literally zero; in float mode a
claim passes when its residual stays within 1e-9 of the magnitude of the
values compared. Exhaustive enumeration is used up to the configured cap
and seeded sampling beyond it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

from .core import GeneralTensor, Permutation, QapInstance, Scalar
from .decomposition import (
    OmegaKind,
    Problem,
    component_average,
    component_value,
    component_value_fast,
    component_value_ref,
    neighborhood_avg_wave,
    omega,
    omega_mean,
    omega_neighborhood_sum_oracle,
    wave_predict_component,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_space,
    evaluate_points,
    moments,
    neighborhood_avg_brute,
    space_points,
)

FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClaimResult:
    """One verified identity: its worst residual and whether it passed."""

    name: str
    residual: Optional[Scalar]
    tolerance: Scalar
    passed: bool
    skipped: bool = False
    detail: str = ""


class _Residual:
    """Tracks the worst absolute deviation and the magnitude scale seen."""

    def __init__(self) -> None:
        self.max: Scalar = 0
        self.scale: Scalar = 1

    def add(self, got: Scalar, want: Scalar) -> None:
        diff = abs(got - want)
        if diff > self.max or diff != diff:  # a NaN compares false; keep it
            self.max = diff
        for v in (got, want):
            a = abs(v)
            if a > self.scale:
                self.scale = a

    def result(self, name: str, exact: bool, detail: str = "") -> ClaimResult:
        tol: Scalar = 0 if exact else FLOAT_TOLERANCE * self.scale
        # Fails closed: a NaN residual or an infinite tolerance never passes.
        passed = self.max <= tol < math.inf
        return ClaimResult(name, self.max, tol, passed, detail=detail)


def _skipped(name: str, why: str) -> ClaimResult:
    return ClaimResult(name, None, 0, True, skipped=True, detail=why)


def _pair_index_tuples(n: int):
    return [
        (i, j, p, q)
        for i in range(n)
        for j in range(n)
        if j != i
        for p in range(n)
        for q in range(n)
        if q != p
    ]


def run_verification(
    problem: Problem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    seed: int = 0,
    sample_size: int = 200,
) -> List[ClaimResult]:
    """Check every decomposition identity on one instance.

    Returns one ClaimResult per identity; callers decide what a failure
    means (the CLI exits with status 2).
    """
    n = problem.n
    exact = problem.exact
    rng = random.Random(seed)
    results: List[ClaimResult] = []

    exhaustive = n <= cap
    if exhaustive:
        points = list(space_points(n))
        base_detail = f"all {len(points)} permutations"
    else:
        points = [Permutation.random(n, rng) for _ in range(sample_size)]
        base_detail = f"{len(points)} sampled permutations"
    columns = evaluate_points(problem, points)

    # Components must add up to the objective at every point.
    res = _Residual()
    for c1, c2, c3, f in zip(*columns):
        res.add(c1 + c2 + c3, f)
    results.append(res.result("decomposition_sum", exact, base_detail))

    # Wave equation per component and for the composite objective; the
    # brute-force side reads (c1, c2, c3, f) at each neighbor.
    wave_exhaustive = exhaustive and n <= 6
    if wave_exhaustive:
        wave_points = points
        index = {x.mapping: i for i, x in enumerate(points)}
        evaluators = [lambda y, col=col: col[index[y.mapping]] for col in columns]
        wave_detail = base_detail
    else:
        wave_points = rng.sample(points, min(20, len(points)))
        evaluators = [partial(component_value, problem, m) for m in (1, 2, 3)]
        evaluators.append(problem.fitness)
        wave_detail = f"{len(wave_points)} sampled permutations"

    for m in (1, 2, 3):
        res = _Residual()
        for x in wave_points:
            res.add(
                neighborhood_avg_brute(evaluators[m - 1], x),
                wave_predict_component(problem, m, x),
            )
        results.append(res.result(f"wave_component_{m}", exact, wave_detail))

    res = _Residual()
    for x in wave_points:
        res.add(
            neighborhood_avg_brute(evaluators[3], x),
            neighborhood_avg_wave(problem, x),
        )
    results.append(res.result("neighborhood_average", exact, wave_detail))

    # Closed-form means and variance additivity need the full space.
    if exhaustive:
        (mean1, var1), (mean2, var2), (mean3, var3), (_, var_f) = map(moments, columns)
        for m, mean in zip((1, 2, 3), (mean1, mean2, mean3)):
            res = _Residual()
            res.add(mean, component_average(problem, m))
            results.append(res.result(f"closed_form_mean_{m}", exact, base_detail))
        res = _Residual()
        res.add(var1 + var2 + var3, var_f)
        results.append(res.result("variance_orthogonality", exact, base_detail))
    else:
        why = f"n={n} beyond enumeration cap {cap}"
        for m in (1, 2, 3):
            results.append(_skipped(f"closed_form_mean_{m}", why))
        results.append(_skipped("variance_orthogonality", why))

    # Fast product-form evaluator against the direct reference evaluator.
    if not isinstance(problem, QapInstance):
        results.append(_skipped("fast_vs_reference", "fast path is product-form only"))
    elif n > 32:
        results.append(_skipped("fast_vs_reference", "reference tensor needs n <= 32"))
    else:
        tensor = GeneralTensor.from_qap(problem)
        xs = [Permutation.identity(n)] + [Permutation.random(n, rng) for _ in range(19)]
        res = _Residual()
        for x in xs:
            for m in (1, 2, 3):
                res.add(
                    component_value_fast(problem, m, x),
                    component_value_ref(tensor, m, x),
                )
        results.append(
            res.result("fast_vs_reference", exact, f"{len(xs)} permutations, all components")
        )

    # Closed-form neighbor sums of the five-case family vs literal sums.
    pool = _pair_index_tuples(n)
    if n <= 4:
        case_tuples = pool
        case_points = points if exhaustive else wave_points
        case_detail = f"all {len(case_tuples)} index tuples, {len(case_points)} permutations"
    else:
        case_tuples = rng.sample(pool, min(60, len(pool)))
        case_points = rng.sample(points, min(20, len(points)))
        case_detail = f"{len(case_tuples)} sampled index tuples, {len(case_points)} permutations"
    res = _Residual()
    for kind in OmegaKind:
        for (i, j, p, q) in case_tuples:
            for x in case_points:
                literal = sum(omega(kind, i, j, p, q, y) for y in x.neighbors())
                res.add(omega_neighborhood_sum_oracle(kind, i, j, p, q, x), literal)
    results.append(ClaimResult(
        "case_sum_formulas", res.max, 0, res.max == 0, detail=case_detail
    ))

    # Enumerated space means of the five-case family vs their closed forms.
    if n <= 6:
        mean_tuples = rng.sample(pool, min(10, len(pool)))
        res = _Residual()
        for kind in OmegaKind:
            for (i, j, p, q) in mean_tuples:
                stats = enumerate_space(
                    lambda x: omega(kind, i, j, p, q, x), n, cap=max(cap, n)
                )
                res.add(stats.mean, omega_mean(kind, n))
        results.append(ClaimResult(
            "enumerated_case_means", res.max, 0, res.max == 0,
            detail=f"{len(mean_tuples)} sampled index tuples",
        ))
    else:
        results.append(_skipped("enumerated_case_means", f"n={n} beyond mean-check bound 6"))

    return results
