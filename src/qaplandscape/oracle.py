"""Brute-force ground truth: neighbor averages, full-space statistics, and
a generic elementarity checker.

Everything here enumerates independently of the closed-form evaluators it
is used to validate. The literal oracles (space_points, evaluate_points,
variance_triple, check_elementary) walk permutations in lexicographic order
and evaluate each point in full. The streamed pass behind `stats` and
`verify` (space_rows) walks them in Heap's order instead, where consecutive
permutations differ by one transposition, and carries each point's values
to the next in O(n); it is tested against the literal oracles. Both orders
are fixed, so float-mode reductions are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import add, mul
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .core import (
    Permutation,
    QapInstance,
    Scalar,
    div,
    fsum,
    neighborhood_size,
    passes,
)
# decompose is bound here for the benchmark tracer (qapbench/spans.py),
# which rebinds every module's copy of a traced name; nothing here calls it.
from .decomposition import (  # noqa: F401
    ComponentTriple,
    Problem,
    _case_masses,
    _masses_from_sums,
    _raw_sums,
    _swap_sum_deltas,
    _value_from_totals,
    decompose,
)

# 8! = 40320 points; anything larger must opt in explicitly.
DEFAULT_ENUMERATION_CAP = 8

EvalFn = Callable[[Permutation], Scalar]


@dataclass(frozen=True)
class SpaceStats:
    """Mean and population variance over all n! permutations."""

    mean: Scalar
    variance: Scalar
    count: int


@dataclass(frozen=True)
class ElementarityReport:
    """Outcome of fitting the wave equation to a function by least squares.

    fitted_k is the recovered characteristic constant, present only when
    the fit is exact. A constant function satisfies the equation trivially
    but leaves k undefined; that case is flagged with constant=True.
    """

    is_elementary: bool
    fitted_k: Optional[Scalar]
    max_residual: Scalar
    worst_point: Optional[Permutation]
    constant: bool = False


def _exact(values) -> bool:
    # evalfn results carry no mode flag, so the oracles read it off the values.
    return not any(isinstance(v, float) for v in values)


def moments(values) -> Tuple[Scalar, Scalar]:
    """Mean and population variance of a non-empty value sequence: exact for
    int/Fraction values, accumulated with math.fsum when any is a float.
    A float sum that fsum cannot form is NaN, so the checks reading it fail."""
    count = len(values)
    if not _exact(values):
        mean = fsum(values) / count
        # Squared by multiplication: a float ** 2 raises on overflow, * gives inf.
        return mean, fsum((v - mean) * (v - mean) for v in values) / count
    # Over one common denominator d the sums are integer sums; the Fractions
    # built from them equal the Fraction sums exactly.
    denominators = {v.denominator for v in values}
    d = math.lcm(*denominators)
    scale = {den: d // den for den in denominators}
    total = squares = 0
    for v in values:
        num = v.numerator * scale[v.denominator]
        total += num
        squares += num * num
    mean = Fraction(total, count * d)
    return mean, Fraction(squares, count * d * d) - mean * mean


def neighborhood_avg_brute(evalfn: EvalFn, x: Permutation) -> Scalar:
    """Literal mean of evalfn over all swap neighbors of x."""
    total = 0
    for y in x.neighbors():
        total = total + evalfn(y)
    return div(total, neighborhood_size(x.n), _exact((total,)))


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(
            f"full enumeration of {n}! permutations exceeds the cap {cap}"
        )


def space_points(n: int):
    """All permutations of size n in lexicographic order."""
    for t in permutations(range(n)):
        yield Permutation._wrap(t)


def lexicographic_point(n: int, rank: int) -> Permutation:
    """The permutation at this 0-based rank of space_points(n), decoded
    digit by digit in the factorial number system."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range 0..{math.factorial(n) - 1}")
    items = list(range(n))
    mapping = []
    for k in range(n - 1, -1, -1):
        digit, rank = divmod(rank, math.factorial(k))
        mapping.append(items.pop(digit))
    return Permutation._wrap(tuple(mapping))


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


def _row(problem: Problem, totals, f) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
    """The row (c1, c2, c3, f) from the case masses and the objective."""
    return (
        _value_from_totals(problem, 1, totals),
        _value_from_totals(problem, 2, totals),
        _value_from_totals(problem, 3, totals),
        f,
    )


def _full_row(problem: Problem, x: Permutation) -> Tuple[Scalar, ...]:
    """The row at x, evaluated in full."""
    return _row(problem, _case_masses(problem, x), problem.fitness(x))


def space_rows(problem: Problem) -> Iterator[Tuple[tuple, Tuple[Scalar, ...]]]:
    """Every permutation's mapping with its row (c1, c2, c3, f), once each.

    For a QapInstance the permutations come in Heap's order from the
    identity. The seven sums behind the case masses are evaluated in full
    once and then carried from point to point by
    decomposition._swap_sum_deltas, in O(n) per point: rational rows equal
    evaluate_points exactly, float rows are running sums, as in the walk,
    and agree with a full evaluation to FLOAT_TOLERANCE. A GeneralTensor is
    evaluated in full at each point, in lexicographic order. The caller
    checks the enumeration cap.
    """
    if not isinstance(problem, QapInstance):
        for x in space_points(problem.n):
            yield x.mapping, _full_row(problem, x)
        return
    mapping = list(range(problem.n))
    sums = _raw_sums(problem, mapping)
    yield tuple(mapping), _row(problem, _masses_from_sums(problem, sums), sums[0])
    for u, v in heap_swaps(problem.n):
        deltas = _swap_sum_deltas(problem, mapping, u, v)
        sums = list(map(add, sums, deltas))
        mapping[u], mapping[v] = mapping[v], mapping[u]
        yield tuple(mapping), _row(problem, _masses_from_sums(problem, sums), sums[0])


def space_columns(problem: Problem, table: Optional[dict] = None):
    """Columns (c1, c2, c3, f) over all n! permutations from one space_rows
    pass, in its order; each row is also stored under its mapping in table,
    when one is given."""
    columns = ([], [], [], [])
    for mapping, row in space_rows(problem):
        for col, value in zip(columns, row):
            col.append(value)
        if table is not None:
            table[mapping] = row
    return columns


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
    """
    _check_cap(n, cap)
    points = list(space_points(n))
    value_of = {x.mapping: evalfn(x) for x in points}
    averages = [
        neighborhood_avg_brute(lambda y: value_of[y.mapping], x) for x in points
    ]
    values = [value_of[x.mapping] for x in points]
    exact = _exact(values)
    count = len(points)
    # Constancy is read off the values: the float moments of a constant
    # function need not cancel to zero.
    constant = min(values) == max(values)
    if constant:
        # The equation holds for every a and k is undefined; a = 1, b = 0
        # measures how far the neighbor means stray from the value.
        a, b = 1, 0
    else:
        # Least squares on centred values, whose squares stay positive
        # where float raw moments can cancel.
        mean = div(sum(values), count, exact)
        mean_avg = div(sum(averages), count, exact)
        dev = [v - mean for v in values]
        dev_avg = [g - mean_avg for g in averages]
        a = div(sum(map(mul, dev, dev_avg)), sum(map(mul, dev, dev)), exact)
        b = mean_avg - a * mean

    max_residual = 0
    worst = points[0]
    for x, v, g in zip(points, values, averages):
        residual = abs(g - (a * v + b))
        if residual > max_residual or residual != residual:  # keep a NaN
            max_residual = residual
            worst = x

    scale = max(1, max(abs(v) for v in values))
    elementary = passes(max_residual, scale, exact)
    if constant:
        return ElementarityReport(elementary, None, max_residual, None, constant=True)
    fitted_k = neighborhood_size(n) * (1 - a) if elementary else None
    return ElementarityReport(elementary, fitted_k, max_residual, worst)


def population_variance(values) -> Scalar:
    """Population variance of a value sequence (exact for int/Fraction)."""
    return moments(values)[1]


def evaluate_points(
    problem: Problem, points: Iterable[Permutation]
) -> Tuple[List[Scalar], List[Scalar], List[Scalar], List[Scalar]]:
    """Columns (c1, c2, c3, f) of the components and the objective, one
    entry per point, in the order the points come; each point is
    evaluated in full."""
    columns = ([], [], [], [])
    for x in points:
        for col, v in zip(columns, _full_row(problem, x)):
            col.append(v)
    return columns


def variance_triple(
    problem: Problem, cap: int = DEFAULT_ENUMERATION_CAP
) -> ComponentTriple:
    """Population variances of the three components and of the objective by
    full enumeration of all n! permutations: the brute-force oracle for
    decomposition.component_variances."""
    _check_cap(problem.n, cap)
    return ComponentTriple(*(
        population_variance(col)
        for col in evaluate_points(problem, space_points(problem.n))
    ))
