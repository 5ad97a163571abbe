"""Brute-force ground truth: neighbor averages, full-space statistics, and
a generic elementarity checker.

Nothing here uses the closed forms it is used to validate: the wave
equation and the component means and variances. The literal oracles
(space_points, enumerate_space, check_elementary) walk permutations in
lexicographic order and evaluate each point in full.

The streamed pass behind `stats` and `verify` (space_moments) walks them
in Heap's order instead, where consecutive permutations differ by one
transposition, and carries the five sums of decomposition._raw_sums from
point to point in O(n): f_same, f_swapped, the diagonal sum and the two
marginal pairings P and Q. It keeps no values, in either mode: it runs on
the integer twin (core._integer_scaled), each component is an integer
numerator over one denominator, formed from the five by the fixed integer
rows of decomposition._numerator_rows, c1 + c2 + c3 = f is checked as an
integer identity, and the sums and sums of squares of the numerators are
Python ints. Each mean and variance is formed once at the end by
core._ratio, as are the closed forms: a Fraction in rational mode, the
correctly rounded float in float mode. neighbor_means, behind verify's wave
claims, totals the five sums of a point's swap neighbors on the same twin,
each from those at the point plus the swap's O(n) update, and forms each
neighborhood mean once by the same rows and the same rule. variance_triple
reads the same pass. Every whole-space oracle takes a space whole by one
rule, _whole_space.

The literal means and variances (moments, and through it the neighborhood
mean) and the least-squares fit of check_elementary take their values'
integer numerators over one common denominator from core._integer_values,
run in Python ints, and form each result once by core._ratio in both
modes, so a float result is the exact one correctly rounded, whatever the
order of the values. A float infinity or NaN has no integer numerator, and
every statistic of values that hold one fails closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import mul
from typing import Callable, Iterator, Optional, Tuple

from .core import (
    Permutation,
    QapInstance,
    Scalar,
    _integer_scaled,
    _integer_values,
    _ratio,
    fsum,
    neighborhood_size,
    passes,
)
from .decomposition import (
    ComponentTriple,
    Problem,
    _numerator_rows,
    _raw_sums,
    _sums,
    _swap_sum_deltas,
    decompose,  # bound here for qapbench's tracer, which wraps every binding
)

# 8! = 40320 points; anything larger must opt in explicitly.
DEFAULT_ENUMERATION_CAP = 8

# Random permutations that verify draws beyond the enumeration cap; a space
# of at most this many points is taken whole instead, at any cap.
SAMPLE_SIZE = 200

EvalFn = Callable[[Permutation], Scalar]


@dataclass(frozen=True)
class SpaceStats:
    """Mean and population variance over all n! permutations."""

    mean: Scalar
    variance: Scalar
    count: int


@dataclass(frozen=True)
class SpaceMoments:
    """Means and population variances of (c1, c2, c3, f) over all n!
    permutations, with the worst decomposition_sum residual
    |c1 + c2 + c3 - f| over them and the magnitude scale of the values it
    compared (at least 1)."""

    means: ComponentTriple
    variances: ComponentTriple
    count: int
    residual: Scalar
    scale: Scalar


@dataclass(frozen=True)
class ElementarityReport:
    """Outcome of fitting the wave equation to a function by least squares.

    fitted_k is the recovered characteristic constant, present only when
    the function is elementary. A constant function satisfies the equation
    trivially but leaves k undefined; that case is flagged with
    constant=True.
    """

    is_elementary: bool
    fitted_k: Optional[Scalar]
    max_residual: Scalar
    worst_point: Optional[Permutation]
    constant: bool = False


def _integer_moments(total: int, squares: int, count: int, d: int, exact: bool):
    """Mean and population variance of count values whose integer
    numerators over d sum to total and their squares to squares, each formed
    once from its exact numerator and denominator by core._ratio."""
    return (_ratio(total, count * d, exact),
            _ratio(count * squares - total * total, (count * d) ** 2, exact))


def moments(values) -> Tuple[Scalar, Scalar]:
    """Mean and population variance of a non-empty value sequence, each
    formed once from the values' integer numerators over one common
    denominator (core._integer_values) by core._ratio: exact for int/Fraction
    values, the correctly rounded float when any is a float. A non-finite
    float gives the fsum mean and a NaN variance, so the checks reading them
    fail."""
    count = len(values)
    integer = _integer_values(values)
    if integer is None:
        return fsum(values) / count, math.nan
    numerators, d, exact = integer
    return _integer_moments(sum(numerators), sum(map(mul, numerators, numerators)),
                            count, d, exact)


def neighborhood_avg_brute(evalfn: EvalFn, x: Permutation) -> Scalar:
    """Literal mean of evalfn over all swap neighbors of x (moments)."""
    return moments([evalfn(y) for y in x.neighbors()])[0]


def _whole_space(n: int, cap: int) -> bool:
    """Whether a space of size n is taken whole under this enumeration cap:
    the one rule of every oracle over the whole space, stats and verify."""
    return n <= cap or math.factorial(n) <= SAMPLE_SIZE


def _check_cap(n: int, cap: int) -> None:
    """Refuse a space that _whole_space does not take whole."""
    if not _whole_space(n, cap):
        raise ValueError(
            f"full enumeration of {n}! permutations exceeds the cap {cap}"
        )


def space_points(n: int):
    """All permutations of size n in lexicographic order."""
    for t in permutations(range(n)):
        yield Permutation._wrap(t)


def heap_swaps(n: int) -> Iterator[Tuple[int, int]]:
    """The n! - 1 transpositions (u, v), u < v, that take the identity
    through every permutation of size n once, in Heap's order (B. R. Heap,
    "Permutations by interchanges", Comput. J. 6, 1963)."""
    c = [0] * n
    i = 1
    while i < n:
        if c[i] < i:
            yield (0 if i % 2 == 0 else c[i]), i
            c[i] += 1
            i = 1
        else:
            c[i] = 0
            i += 1


def _space_sums(problem: Problem):
    """The five sums of decomposition._sums, (f_same, f_swapped, diag, P, Q),
    and the objective value of every permutation, once each.

    For a QapInstance the permutations come in Heap's order from the
    identity: the five sums are evaluated in full once, and then carried
    from point to point by decomposition._swap_sum_deltas in O(n). A
    GeneralTensor's sums are evaluated in full at each point, in
    lexicographic order.
    """
    if not isinstance(problem, QapInstance):
        for x in space_points(problem.n):
            yield (*_sums(problem, x), problem.fitness(x))
        return
    mapping = list(range(problem.n))
    same, swapped, diag, p, q = _raw_sums(problem, mapping)
    yield same, swapped, diag, p, q, same
    for u, v in heap_swaps(problem.n):
        d_same, d_swapped, d_diag, dp, dq = _swap_sum_deltas(problem, mapping, u, v)
        mapping[u], mapping[v] = mapping[v], mapping[u]
        same += d_same
        swapped += d_swapped
        diag += d_diag
        p += dp
        q += dq
        yield same, swapped, diag, p, q, same


def neighbor_means(problem: Problem, x: Permutation) -> ComponentTriple:
    """Literal means of (c1, c2, c3, f) over the swap neighbors of x, on the
    integer twin (core._integer_scaled) in both modes: the neighbors' five
    sums, for a QapInstance those at x plus decomposition._swap_sum_deltas
    of each swap, for a GeneralTensor each evaluated in full, are totalled
    and dotted with the rows of decomposition._numerator_rows, and each mean
    is formed once by core._ratio."""
    scaled, d = _integer_scaled(problem)
    n, count = problem.n, neighborhood_size(problem.n)
    if isinstance(problem, QapInstance):
        deltas = zip(*(_swap_sum_deltas(scaled, x.mapping, u, v)
                       for u, v in combinations(range(n), 2)))
        totals = [count * s + sum(c) for s, c in zip(_sums(scaled, x), deltas)]
    else:
        totals = [sum(c) for c in zip(*(_sums(scaled, y) for y in x.neighbors()))]
    lcm, rows = _numerator_rows(n)
    values = (*totals, count * scaled.coefficient_sums()[0])
    exact = problem.exact
    return ComponentTriple(
        *(_ratio(sum(map(mul, row, values)), lcm * d * count, exact) for row in rows),
        _ratio(totals[0], d * count, exact),
    )


def space_moments(problem: Problem) -> SpaceMoments:
    """Means, variances and the decomposition_sum residual of (c1, c2, c3, f)
    over all n! permutations, from one pass over the points of _space_sums,
    in its order. The caller checks the enumeration cap.

    The pass runs on the problem's integer twin, scaled by d
    (_integer_scaled), in both modes, and each component is its integer
    numerator over L * d, formed from the five carried quantities by the
    rows of decomposition._numerator_rows, where L is the least common
    multiple of the three kinds' weight denominators. At each point the
    numerators are checked to add up to L times f, and their sums and sums
    of squares are accumulated as ints; no value is kept. Every mean and
    variance is formed once from its integer numerator and denominator by
    core._ratio: a Fraction in rational mode, the correctly rounded float in
    float mode (inf of its sign beyond the float range).
    """
    exact = problem.exact
    lcm, rows = _numerator_rows(problem.n)
    scaled, d = _integer_scaled(problem)
    den = lcm * d
    # Each row's last coefficient multiplies T, the off-diagonal coefficient
    # total, a constant of the problem: fold it in once.
    off_total = scaled.coefficient_sums()[0]
    (a1, b1, d1, g1, e1, z1), (a2, b2, d2, g2, e2, z2), (a3, b3, d3, g3, e3, z3) = (
        (*row[:5], row[5] * off_total) for row in rows
    )
    # Per column (c1, c2, c3, L f): the sum and the sum of squares of the
    # numerators over L d.
    t1 = t2 = t3 = tf = s1 = s2 = s3 = sf = 0
    worst = top = lo = hi = 0
    for same, swapped, diag, p, q, f in _space_sums(scaled):
        c1 = a1 * same + b1 * swapped + d1 * diag + g1 * p + e1 * q + z1
        c2 = a2 * same + b2 * swapped + d2 * diag + g2 * p + e2 * q + z2
        c3 = a3 * same + b3 * swapped + d3 * diag + g3 * p + e3 * q + z3
        lf = lcm * f
        t1 += c1
        t2 += c2
        t3 += c3
        tf += lf
        s1 += c1 * c1
        s2 += c2 * c2
        s3 += c3 * c3
        sf += lf * lf
        if f > hi:
            hi = f
        elif f < lo:
            lo = f
        got = c1 + c2 + c3
        if got != lf:
            worst = max(worst, abs(got - lf))
            top = max(top, abs(got))
    top = max(top, lcm * hi, -lcm * lo)
    count = math.factorial(problem.n)
    means, variances = zip(*(
        _integer_moments(total, squares, count, den, exact)
        for total, squares in ((t1, s1), (t2, s2), (t3, s3), (tf, sf))
    ))
    return SpaceMoments(
        ComponentTriple(*means), ComponentTriple(*variances), count,
        _ratio(worst, den, exact), max(1, _ratio(top, den, exact)),
    )


def enumerate_space(
    evalfn: EvalFn, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> SpaceStats:
    """Exact mean and population variance of evalfn over all n! points."""
    _check_cap(n, cap)
    values = [evalfn(x) for x in space_points(n)]
    return SpaceStats(*moments(values), len(values))


def check_elementary(
    evalfn: EvalFn,
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ElementarityReport:
    """Fit neighbor_mean(x) = a * f(x) + b over all x by least squares.

    A function is elementary exactly when the fit leaves zero residual
    everywhere; the characteristic constant is then k = d (1 - a). In float
    mode "zero" means max residual <= FLOAT_TOLERANCE * max(1, max |f|).

    The fit is exact in both modes: it runs on the values' integer
    numerators over one common denominator (core._integer_values), and
    max_residual and fitted_k are each formed once by core._ratio, so a
    float result is the exact fit of the float values, correctly rounded.
    A float infinity or NaN has no exact value: such a function is never
    elementary, and its residual is NaN.
    """
    _check_cap(n, cap)
    points = list(space_points(n))
    integer = _integer_values([evalfn(x) for x in points])
    if integer is None:
        return ElementarityReport(False, None, math.nan, None)
    values, den, exact = integer
    index = {x.mapping: i for i, x in enumerate(points)}
    # Each point's neighbor sum: d times its neighbor mean, over den.
    sums = [sum(values[index[y.mapping]] for y in x.neighbors()) for x in points]
    count, d = len(points), neighborhood_size(n)
    total, total_sums = sum(values), sum(sums)
    # count^2 den^2 times the variance of f, and count^2 den^2 d times its
    # covariance with the neighbor mean, so a = cov / (d var).
    var = count * sum(map(mul, values, values)) - total * total
    cov = count * sum(map(mul, values, sums)) - total * total_sums
    if var == 0:
        # A constant function: each neighbor mean equals the value, the
        # equation holds for every a, and k is undefined.
        return ElementarityReport(True, None, _ratio(0, 1, exact), None, constant=True)
    # Each residual g - (a f + b), times count var d den.
    offset = var * total_sums - cov * total
    residuals = [abs(count * (var * s - cov * v) - offset) for v, s in zip(values, sums)]
    worst = max(residuals)
    max_residual = _ratio(worst, count * var * d * den, exact)
    scale = max(1, _ratio(max(map(abs, values)), den, exact))
    elementary = passes(max_residual, scale, exact)
    # k = d (1 - a) = (d var - cov) / var.
    fitted_k = _ratio(d * var - cov, var, exact) if elementary else None
    return ElementarityReport(elementary, fitted_k, max_residual,
                              points[residuals.index(worst)])


def population_variance(values) -> Scalar:
    """Population variance of a value sequence (exact for int/Fraction)."""
    return moments(values)[1]


def variance_triple(
    problem: Problem, cap: int = DEFAULT_ENUMERATION_CAP
) -> ComponentTriple:
    """Population variances of the three components and of the objective by
    full enumeration of all n! permutations, from the streamed pass
    (space_moments): the brute-force oracle for
    decomposition.component_variances."""
    _check_cap(problem.n, cap)
    return space_moments(problem).variances
