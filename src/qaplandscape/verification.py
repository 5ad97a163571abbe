"""Self-check harness: every closed-form identity of the decomposition that
depends on the instance is replayed against literal enumeration on that
instance and reported as a named residual.

In rational mode every residual must be literally zero; in float mode a
claim passes when its residual stays within 1e-9 of the magnitude of the
values compared. Exhaustive enumeration is used up to the configured cap
and seeded sampling beyond it, except that a space of at most SAMPLE_SIZE
points is always taken whole; the claims that need the full space still
skip beyond the cap.

Each neighborhood is evaluated once per point: the wave claims read the
four values (c1, c2, c3, f) of every neighbor from one table.

The five-case family behind the components also obeys two lemmas in n
alone: the closed-form neighbor sum in each case and the space mean of
each kind. They hold for every instance, so they are not replayed here;
the test suite checks them exhaustively (tests/five_case.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from .core import (
    MAX_TENSOR_SIZE,
    GeneralTensor,
    Permutation,
    QapInstance,
    Scalar,
    passes,
    tolerance,
)
from .decomposition import (
    Problem,
    component_average,
    component_variances,
    decompose,
    neighborhood_avg_wave,
    wave_predict_component,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    evaluate_points,
    lexicographic_point,
    moments,
    neighborhood_avg_brute,
    space_columns,
)

# Random permutations drawn beyond the enumeration cap; a space of at most
# this many points is taken whole instead.
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
        passed = passes(self.max, self.scale, exact)
        return ClaimResult(
            name, self.max, tolerance(self.scale, exact), passed, detail=detail
        )


def _skipped(name: str, why: str) -> ClaimResult:
    return ClaimResult(name, None, 0, True, skipped=True, detail=why)


def run_verification(
    problem: Problem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    seed: int = 0,
) -> List[ClaimResult]:
    """Check every decomposition identity that depends on the instance.

    Returns one ClaimResult per identity; callers decide what a failure
    means (the CLI exits with status 2).
    """
    n = problem.n
    exact = problem.exact
    rng = random.Random(seed)
    results: List[ClaimResult] = []

    exhaustive = n <= cap
    whole_space = exhaustive or math.factorial(n) <= SAMPLE_SIZE
    # Whole-space values come from one streamed pass in Heap's order; the
    # wave claims read them back from a table for n <= 6.
    wave_exhaustive = whole_space and n <= 6
    table = {}
    if whole_space:
        columns = space_columns(problem, table if wave_exhaustive else None)
        base_detail = f"all {len(columns[3])} permutations"
    else:
        points = [Permutation.random(n, rng) for _ in range(SAMPLE_SIZE)]
        columns = evaluate_points(problem, points)
        base_detail = f"{len(points)} sampled permutations"

    # Components must add up to the objective at every point.
    res = _Residual()
    for c1, c2, c3, f in zip(*columns):
        res.add(c1 + c2 + c3, f)
    results.append(res.result("decomposition_sum", exact, base_detail))

    # Wave equation per component and for the composite objective; the
    # brute-force side reads (c1, c2, c3, f) at each neighbor from a table
    # filled once per neighborhood. Within the cap, sampled wave points are
    # drawn as lexicographic ranks of the whole space.
    if wave_exhaustive:
        wave_points = [Permutation._wrap(mapping) for mapping in table]
        wave_detail = base_detail
    else:
        if whole_space:
            ranks = rng.sample(range(math.factorial(n)), 20)
            wave_points = [lexicographic_point(n, rank) for rank in ranks]
        else:
            wave_points = rng.sample(points, 20)
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

    # Fast product-form evaluator against the direct O(n^4) reference
    # evaluator, both through decompose: once on the instance, once on its
    # tensor.
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
            for fast, ref in zip(decompose(problem, x)[:3], decompose(tensor, x)[:3]):
                res.add(fast, ref)
        results.append(
            res.result("fast_vs_reference", exact, f"{len(xs)} permutations, all components")
        )

    return results
