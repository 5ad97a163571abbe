"""Self-check harness: every closed-form identity of the decomposition that
depends on the instance is replayed against literal enumeration on that
instance and reported as a named residual.

Every claim reduces the (got, want) pairs it compares by one rule,
core.worst: the residual is the worst difference in the values' own
arithmetic, a NaN difference makes it NaN and fails the claim, and the
scale is the largest magnitude compared, at least 1. In rational mode
every residual must be literally zero; in float mode a claim passes when
its residual stays within 1e-9 times the scale (core.passes). Exhaustive
enumeration is used up to the configured cap and seeded sampling beyond
it, except that a space of at most SAMPLE_SIZE points is always taken
whole (_whole_space, the rule stats shares). On a space taken whole every
claim runs; on a sampled one the claims that need the full space skip.

Each wave point is evaluated once, and each neighborhood visited once:
one evaluation of the point, with the closed-form means formed once per
run, gives the wave-equation predictions of all four neighborhood means
(c1, c2, c3, f). The brute-force side is oracle.neighbor_means at every
wave point: the literal means of the four over the point's swap
neighbors, on the integer twin, each formed once.

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
    worst,
)
from .decomposition import (
    Problem,
    _wave_means,
    average_triple,
    component_variances,
    decompose,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    neighbor_means,
    space_moments,
    space_points,
)

# Random permutations drawn beyond the enumeration cap; a space of at most
# this many points is taken whole instead.
SAMPLE_SIZE = 200


def _whole_space(n: int, cap: int) -> bool:
    """Whether a space of size n is taken whole under this enumeration cap:
    the one rule of stats and verify."""
    return n <= cap or math.factorial(n) <= SAMPLE_SIZE


@dataclass(frozen=True)
class ClaimResult:
    """One verified identity: its worst residual and whether it passed."""

    name: str
    residual: Optional[Scalar]
    tolerance: Scalar
    passed: bool
    skipped: bool = False
    detail: str = ""


def _claim(name: str, residual: Scalar, scale: Scalar, exact: bool,
           detail: str) -> ClaimResult:
    """A claim's result from its worst residual and the magnitude scale of
    the values it compared."""
    return ClaimResult(
        name, residual, tolerance(scale, exact), passes(residual, scale, exact),
        detail=detail,
    )


def _skipped(name: str, why: str) -> ClaimResult:
    """A claim that was not checked; it never reads as passed."""
    return ClaimResult(name, None, 0, False, skipped=True, detail=why)


def run_verification(
    problem: Problem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    seed: int = 0,
) -> List[ClaimResult]:
    """Check every decomposition identity that depends on the instance.

    Returns one ClaimResult per identity; callers decide what a failure
    means (the CLI exits with status 2). A GeneralTensor has no O(n)
    swap update, so its wave claims evaluate each neighbor's five sums in
    full, O(n^3) each: about 1 s at n = 6 on a 2-core VM, where every
    point is a wave point. No command builds a tensor input.
    """
    n = problem.n
    exact = problem.exact
    rng = random.Random(seed)
    results: List[ClaimResult] = []

    whole_space = _whole_space(n, cap)
    # On a whole space the wave claims run at every point for n <= 6.
    wave_exhaustive = whole_space and n <= 6
    # Components must add up to the objective at every point: the streamed
    # pass checks it on the whole space, alongside the moments.
    if whole_space:
        space = space_moments(problem)
        base_detail = f"all {space.count} permutations"
        residual, scale = space.residual, space.scale
    else:
        points = [Permutation.random(n, rng) for _ in range(SAMPLE_SIZE)]
        residual, scale = worst(
            (decompose(problem, x).total, problem.fitness(x)) for x in points)
        base_detail = f"{len(points)} sampled permutations"
    results.append(_claim("decomposition_sum", residual, scale, exact, base_detail))

    # Wave equation per component and for the composite objective, against
    # the literal neighborhood means of (c1, c2, c3, f) (neighbor_means).
    # The prediction side decomposes x in full, so the two sides stay
    # separate evaluations.
    if wave_exhaustive:
        wave_points = space_points(n)
    elif whole_space:
        wave_points = [Permutation.random(n, rng) for _ in range(20)]
    else:
        wave_points = rng.sample(points, 20)
    wave_detail = (base_detail if wave_exhaustive
                   else f"{len(wave_points)} sampled permutations")

    averages = average_triple(problem)
    # One (got, want) pair list per column (c1, c2, c3, f).
    wave = zip(*(zip(neighbor_means(problem, x), _wave_means(problem, x, averages))
                 for x in wave_points))
    names = ("wave_component_1", "wave_component_2", "wave_component_3",
             "neighborhood_average")
    for name, pairs in zip(names, wave):
        results.append(_claim(name, *worst(pairs), exact, wave_detail))

    # Closed-form means and variance additivity need the full space.
    if whole_space:
        var1, var2, var3, var_f = space.variances
        for m, pair in zip((1, 2, 3), zip(space.means, averages)):
            results.append(_claim(f"closed_form_mean_{m}", *worst([pair]),
                                  exact, base_detail))
        # Scaled by Var(f): a component's variance may be tiny beside it.
        closed = component_variances(problem)
        for m, pair in zip((1, 2, 3), zip(space.variances, closed)):
            results.append(_claim(f"closed_form_variance_{m}",
                                  *worst([pair], max(1, abs(var_f))), exact, base_detail))
        results.append(_claim("variance_orthogonality",
                              *worst([(var1 + var2 + var3, var_f)]), exact, base_detail))
    else:
        why = f"n={n} beyond enumeration cap {cap}"
        for claim in ("closed_form_mean", "closed_form_variance"):
            for m in (1, 2, 3):
                results.append(_skipped(f"{claim}_{m}", why))
        results.append(_skipped("variance_orthogonality", why))

    # Fast product-form evaluator against the reference evaluator, both
    # through decompose: once on the instance, from its cached marginals in
    # O(n^2) per point, once on its dense tensor, whose blocks alone give
    # the five sums in O(n^3) per point (decomposition._tensor_sums).
    if not isinstance(problem, QapInstance):
        results.append(_skipped("fast_vs_reference", "fast path is product-form only"))
    elif n > MAX_TENSOR_SIZE:
        results.append(_skipped(
            "fast_vs_reference", f"reference tensor needs n <= {MAX_TENSOR_SIZE}"
        ))
    else:
        tensor = GeneralTensor.from_qap(problem)
        xs = [Permutation.identity(n)] + [Permutation.random(n, rng) for _ in range(19)]
        pairs = [pair for x in xs
                 for pair in zip(decompose(problem, x)[:3], decompose(tensor, x)[:3])]
        results.append(_claim("fast_vs_reference", *worst(pairs), exact,
                              f"{len(xs)} permutations, all components"))

    return results
