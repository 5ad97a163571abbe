"""Self-check harness: every closed-form identity of the decomposition is
replayed against literal enumeration on one instance and reported as a
named residual.

In rational mode every residual must be literally zero; in float mode a
claim passes when its residual stays within 1e-9 of the magnitude of the
values compared. Exhaustive enumeration is used up to the configured cap
and seeded sampling beyond it.

Each neighborhood is evaluated once per point: the wave claims read the
four values (c1, c2, c3, f) of every neighbor from one table, and the
case-sum claims classify every neighbor once per index tuple, the three
kinds' literal sums following from the five case counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Optional

from .core import (
    FLOAT_TOLERANCE,
    MAX_TENSOR_SIZE,
    GeneralTensor,
    Permutation,
    QapInstance,
    Scalar,
)
from .decomposition import (
    OmegaKind,
    Problem,
    _omega_case,
    component_average,
    component_value_fast,
    component_value_ref,
    component_variances,
    decompose,
    neighborhood_avg_wave,
    omega_mean,
    omega_neighborhood_sum_oracle,
    omega_params,
    wave_predict_component,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    evaluate_points,
    moments,
    neighborhood_avg_brute,
    space_points,
)

# Random permutations drawn beyond the enumeration cap.
SAMPLE_SIZE = 200


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
    """Tracks the worst absolute deviation and the magnitude scale seen,
    starting from the given scale."""

    def __init__(self, scale: Scalar = 1) -> None:
        self.max: Scalar = 0
        self.scale: Scalar = scale

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


def _pair_index_tuple(index: int, n: int):
    """The entry at `index` of _pair_index_tuples(n), without building it."""
    index, q = divmod(index, n - 1)
    index, p = divmod(index, n)
    i, j = divmod(index, n - 1)
    return i, j + (j >= i), p, q + (q >= p)


def _sample_pair_index_tuples(rng: random.Random, n: int, k: int):
    """rng.sample of k index tuples, drawing exactly what sampling the full
    list would draw, in O(k) memory."""
    count = n * n * (n - 1) * (n - 1)
    return [_pair_index_tuple(t, n) for t in rng.sample(range(count), min(k, count))]


def _case_counts(i: int, j: int, p: int, q: int, xs) -> List[int]:
    """How many of the permutations xs fall into each of the five cases."""
    counts = [0] * 5
    for x in xs:
        counts[_omega_case(i, j, p, q, x)] += 1
    return counts


def run_verification(
    problem: Problem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    seed: int = 0,
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
        points = [Permutation.random(n, rng) for _ in range(SAMPLE_SIZE)]
        base_detail = f"{len(points)} sampled permutations"
    columns = evaluate_points(problem, points)

    # Components must add up to the objective at every point.
    res = _Residual()
    for c1, c2, c3, f in zip(*columns):
        res.add(c1 + c2 + c3, f)
    results.append(res.result("decomposition_sum", exact, base_detail))

    # Wave equation per component and for the composite objective; the
    # brute-force side reads (c1, c2, c3, f) at each neighbor from a table
    # filled once per neighborhood.
    wave_exhaustive = exhaustive and n <= 6
    if wave_exhaustive:
        wave_points = points
        table = {x.mapping: row for x, row in zip(points, zip(*columns))}
        wave_detail = base_detail
    else:
        wave_points = rng.sample(points, min(20, len(points)))
        wave_detail = f"{len(wave_points)} sampled permutations"

    wave = [_Residual() for _ in range(4)]
    for x in wave_points:
        if not wave_exhaustive:
            table = {
                y.mapping: decompose(problem, y)[:3] + (problem.fitness(y),)
                for y in x.neighbors()
            }
        predicted = [wave_predict_component(problem, m, x) for m in (1, 2, 3)]
        predicted.append(neighborhood_avg_wave(problem, x))
        for col, res in enumerate(wave):
            res.add(
                neighborhood_avg_brute(lambda y: table[y.mapping][col], x),
                predicted[col],
            )
    names = ("wave_component_1", "wave_component_2", "wave_component_3",
             "neighborhood_average")
    for name, res in zip(names, wave):
        results.append(res.result(name, exact, wave_detail))

    # Closed-form means and variance additivity need the full space.
    if exhaustive:
        (mean1, var1), (mean2, var2), (mean3, var3), (_, var_f) = map(moments, columns)
        for m, mean in zip((1, 2, 3), (mean1, mean2, mean3)):
            res = _Residual()
            res.add(mean, component_average(problem, m))
            results.append(res.result(f"closed_form_mean_{m}", exact, base_detail))
        # Scaled by Var(f): a component's variance may be tiny beside it.
        closed = component_variances(problem)
        for m, var in zip((1, 2, 3), (var1, var2, var3)):
            res = _Residual(scale=max(1, abs(var_f)))
            res.add(var, closed[m - 1])
            results.append(res.result(f"closed_form_variance_{m}", exact, base_detail))
        res = _Residual()
        res.add(var1 + var2 + var3, var_f)
        results.append(res.result("variance_orthogonality", exact, base_detail))
    else:
        why = f"n={n} beyond enumeration cap {cap}"
        for claim in ("closed_form_mean", "closed_form_variance"):
            for m in (1, 2, 3):
                results.append(_skipped(f"{claim}_{m}", why))
        results.append(_skipped("variance_orthogonality", why))

    # Fast product-form evaluator against the direct reference evaluator.
    if not isinstance(problem, QapInstance):
        results.append(_skipped("fast_vs_reference", "fast path is product-form only"))
    elif n > MAX_TENSOR_SIZE:
        results.append(_skipped(
            "fast_vs_reference", f"reference tensor needs n <= {MAX_TENSOR_SIZE}"
        ))
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

    # Closed-form neighbor sums of the five-case family vs literal sums;
    # the family is integer-valued, so these claims are exact in either mode.
    # Each neighbor is classified once per index tuple; a kind's literal sum
    # is its five case values weighted by the case counts.
    if n <= 4:
        case_tuples = _pair_index_tuples(n)
        case_points = points if exhaustive else wave_points
        case_detail = f"all {len(case_tuples)} index tuples, {len(case_points)} permutations"
    else:
        case_tuples = _sample_pair_index_tuples(rng, n, 60)
        case_points = rng.sample(points, min(20, len(points)))
        case_detail = f"{len(case_tuples)} sampled index tuples, {len(case_points)} permutations"
    neighbors = [list(x.neighbors()) for x in case_points]
    res = _Residual()
    for (i, j, p, q) in case_tuples:
        for x, ys in zip(case_points, neighbors):
            counts = _case_counts(i, j, p, q, ys)
            for kind in OmegaKind:
                literal = sum(map(mul, omega_params(kind, n), counts))
                res.add(omega_neighborhood_sum_oracle(kind, i, j, p, q, x), literal)
    results.append(res.result("case_sum_formulas", True, case_detail))

    # Enumerated space means of the five-case family vs their closed forms,
    # from one enumeration of the space over which each tuple's cases are
    # counted once for all three kinds.
    if n <= 6:
        mean_tuples = _sample_pair_index_tuples(rng, n, 10)
        space = points if exhaustive else list(space_points(n))
        space_counts = [_case_counts(i, j, p, q, space) for (i, j, p, q) in mean_tuples]
        res = _Residual()
        for kind in OmegaKind:
            for counts in space_counts:
                total = sum(map(mul, omega_params(kind, n), counts))
                res.add(Fraction(total, len(space)), omega_mean(kind, n))
        results.append(res.result(
            "enumerated_case_means", True, f"{len(mean_tuples)} sampled index tuples"
        ))
    else:
        results.append(_skipped("enumerated_case_means", f"n={n} beyond mean-check bound 6"))

    return results
