"""Brute-force ground truth: neighbor averages, full-space statistics, and
a generic elementarity checker.

Nothing here uses the closed forms it is used to validate: the wave
equation and the component means and variances. The literal oracles
(space_points, evaluate_points, variance_triple, check_elementary) walk
permutations in lexicographic order and evaluate each point in full;
evaluate_points and variance_triple do so through decompose and fitness.

The streamed pass behind `stats` and `verify` (space_moments, over the
points of space_rows) walks them in Heap's order instead, where
consecutive permutations differ by one transposition, and carries
decomposition's seven sums behind the case masses from point to point in
O(n). In rational mode it keeps no values: the entries are scaled to
integers, each component is an integer numerator over one denominator,
c1 + c2 + c3 = f is checked as an integer identity, and the sums and sums
of squares of the numerators are Python ints, turned into Fractions once
at the end. Float mode keeps the four value columns and sums them with
math.fsum. neighbor_rows builds each swap neighbor's sums from those at
one point the same way, for verify's wave claims. Both share the mass
formulas with the evaluators and are tested against the literal oracles.
Every order is fixed, so float-mode reductions are deterministic.

Exact means sum integer numerators over one common denominator. Float
means over the whole space use math.fsum; a neighborhood mean sums left
to right, in neighbor order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add, mul
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    GeneralTensor,
    Permutation,
    QapInstance,
    Scalar,
    div,
    fsum,
    neighborhood_size,
    passes,
    sum_of,
)
from .decomposition import (
    KIND_CONSTANTS,
    ComponentTriple,
    Problem,
    _case_masses,
    _components,
    _masses_from_sums,
    _numerator,
    _raw_sums,
    _swap_sum_deltas,
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


def _over_common_denominator(values) -> Tuple[Iterator[int], int]:
    """Exact (int or Fraction) values as integer numerators over one common
    denominator d: the numerators, lazily, and d. Integer sums of them
    equal the Fraction sums exactly, at one gcd in the end instead of one
    per addition."""
    denominators = {v.denominator for v in values}
    d = math.lcm(*denominators)
    scale = {den: d // den for den in denominators}
    return (v.numerator * scale[v.denominator] for v in values), d


def _exact_moments(total: int, squares: int, count: int, d: int):
    """Mean and population variance, as Fractions, of count values whose
    integer numerators over d sum to total and their squares to squares."""
    mean = Fraction(total, count * d)
    return mean, Fraction(squares, count * d * d) - mean * mean


def moments(values) -> Tuple[Scalar, Scalar]:
    """Mean and population variance of a non-empty value sequence: exact for
    int/Fraction values, accumulated with math.fsum when any is a float.
    A float sum that fsum cannot form is NaN, so the checks reading it fail."""
    count = len(values)
    if not _exact(values):
        mean = fsum(values) / count
        # Squared by multiplication: a float ** 2 raises on overflow, * gives inf.
        return mean, fsum((v - mean) * (v - mean) for v in values) / count
    numerators, d = _over_common_denominator(values)
    total = squares = 0
    for num in numerators:
        total += num
        squares += num * num
    return _exact_moments(total, squares, count, d)


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


def _neighborhood_mean(values, n: int) -> Scalar:
    """Mean of one value per swap neighbor of a size-n permutation: exact
    over one common denominator for int/Fraction values, else a float sum
    taken left to right in the order given."""
    size = neighborhood_size(n)
    if not _exact(values):
        return reduce(add, values, 0) / size
    numerators, d = _over_common_denominator(values)
    return Fraction(sum(numerators), d * size)


def neighborhood_avg_brute(evalfn: EvalFn, x: Permutation) -> Scalar:
    """Literal mean of evalfn over all swap neighbors of x."""
    return _neighborhood_mean([evalfn(y) for y in x.neighbors()], x.n)


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


def _full_row(problem: Problem, x: Permutation) -> Tuple[Scalar, ...]:
    """The row (c1, c2, c3, f) at x, evaluated in full."""
    return decompose(problem, x)[:3] + (problem.fitness(x),)


def _sums_row(inst: QapInstance, sums) -> Tuple[Scalar, ...]:
    """The row (c1, c2, c3, f) from the seven sums of decomposition._raw_sums."""
    return (*_components(inst, _masses_from_sums(inst, sums)), sums[0])


def _space_masses(problem: Problem) -> Iterator[Tuple[Sequence[int], tuple, Scalar]]:
    """Every permutation's mapping with its case masses and objective value,
    once each, in the order of space_rows. For a QapInstance the mapping is
    the pass's own list, changed in place at the next step."""
    if not isinstance(problem, QapInstance):
        for x in space_points(problem.n):
            yield x.mapping, _case_masses(problem, x), problem.fitness(x)
        return
    mapping = list(range(problem.n))
    sums = _raw_sums(problem, mapping)
    yield mapping, _masses_from_sums(problem, sums), sums[0]
    for u, v in heap_swaps(problem.n):
        sums = list(map(add, sums, _swap_sum_deltas(problem, mapping, u, v)))
        mapping[u], mapping[v] = mapping[v], mapping[u]
        yield mapping, _masses_from_sums(problem, sums), sums[0]


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
    for mapping, masses, f in _space_masses(problem):
        yield tuple(mapping), (*_components(problem, masses), f)


def neighbor_rows(
    problem: Problem, x: Permutation
) -> Iterator[Tuple[Permutation, Tuple[Scalar, ...]]]:
    """Every swap neighbor y of x with its row (c1, c2, c3, f), in
    x.neighbors() order.

    For a QapInstance the seven sums behind the case masses are evaluated
    in full at x, and each neighbor's sums are those plus
    decomposition._swap_sum_deltas of its swap, in O(n) per neighbor:
    rational rows equal _full_row exactly, float rows agree with it to
    FLOAT_TOLERANCE. A GeneralTensor is evaluated in full at each neighbor.
    """
    if not isinstance(problem, QapInstance):
        for y in x.neighbors():
            yield y, _full_row(problem, y)
        return
    mapping = x.mapping
    sums = _raw_sums(problem, mapping)
    n = problem.n
    swaps = ((u, v) for u in range(n) for v in range(u + 1, n))
    for y, (u, v) in zip(x.neighbors(), swaps):
        deltas = _swap_sum_deltas(problem, mapping, u, v)
        yield y, _sums_row(problem, list(map(add, sums, deltas)))


def _common_denominator(rows) -> int:
    return math.lcm(*{v.denominator for row in rows for v in row})


def _times(rows, d: int) -> list:
    """Rows of exact entries times d, as ints; d is a common denominator."""
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows]


def _integer_scaled(problem: Problem) -> Tuple[Problem, int]:
    """An exact problem with integer entries, and the factor d by which it
    scales every value: the common denominator of r times that of w for a
    QapInstance, that of the coefficients for a GeneralTensor."""
    if isinstance(problem, QapInstance):
        dr, dw = _common_denominator(problem.r), _common_denominator(problem.w)
        return QapInstance(_times(problem.r, dr), _times(problem.w, dw)), dr * dw
    psi = problem.psi
    d = _common_denominator(row for block in psi for plane in block for row in plane)
    return GeneralTensor([[_times(plane, d) for plane in block] for block in psi]), d


def space_moments(problem: Problem, table: Optional[dict] = None) -> SpaceMoments:
    """Means, variances and the decomposition_sum residual of (c1, c2, c3, f)
    over all n! permutations, from one pass over the points of space_rows,
    in its order; each point's row is also stored under its mapping in
    table, when one is given. The caller checks the enumeration cap.

    In rational mode the pass runs on the problem scaled to integer entries
    by d (_integer_scaled), and each component is its integer numerator over
    L * d, where L is the least common multiple of the three kinds' weight
    denominators. At each point the numerators are checked to add up to
    L times f, and their sums and sums of squares are accumulated as ints;
    no value is kept, and Fractions are formed only at the end (and for the
    table's rows). Float mode keeps the four columns for moments' fsum.
    """
    if not problem.exact:
        return _float_moments(problem, table)
    n = problem.n
    kinds = [KIND_CONSTANTS[m](n) for m in (1, 2, 3)]
    lcm = math.lcm(*(consts.den for consts in kinds))
    (k1, w1), (k2, w2), (k3, w3) = ((consts, lcm // consts.den) for consts in kinds)
    scaled, d = _integer_scaled(problem)
    den = lcm * d
    # Per column (c1, c2, c3, L f): the sum and the sum of squares of the
    # numerators over L d.
    t1 = t2 = t3 = tf = q1 = q2 = q3 = qf = 0
    worst = top = lo = hi = 0
    count = 0
    for count, (mapping, masses, f) in enumerate(_space_masses(scaled), 1):
        c1 = w1 * _numerator(1, k1, masses)
        c2 = w2 * _numerator(2, k2, masses)
        c3 = w3 * _numerator(3, k3, masses)
        lf = lcm * f
        t1 += c1
        t2 += c2
        t3 += c3
        tf += lf
        q1 += c1 * c1
        q2 += c2 * c2
        q3 += c3 * c3
        qf += lf * lf
        if f > hi:
            hi = f
        elif f < lo:
            lo = f
        got = c1 + c2 + c3
        if got != lf:
            worst = max(worst, abs(got - lf))
            top = max(top, abs(got))
        if table is not None:
            table[tuple(mapping)] = tuple(Fraction(v, den) for v in (c1, c2, c3, lf))
    top = max(top, lcm * hi, -lcm * lo)
    means, variances = zip(*(
        _exact_moments(total, sq, count, den)
        for total, sq in ((t1, q1), (t2, q2), (t3, q3), (tf, qf))
    ))
    return SpaceMoments(
        ComponentTriple(*means), ComponentTriple(*variances), count,
        Fraction(worst, den), max(1, Fraction(top, den)),
    )


def _float_moments(problem: Problem, table: Optional[dict]) -> SpaceMoments:
    """space_moments in float mode, from the four columns of space_rows."""
    columns = ([], [], [], [])
    res = _Residual()
    for mapping, row in space_rows(problem):
        for col, value in zip(columns, row):
            col.append(value)
        c1, c2, c3, f = row
        res.add(c1 + c2 + c3, f)
        if table is not None:
            table[mapping] = row
    means, variances = zip(*map(moments, columns))
    return SpaceMoments(
        ComponentTriple(*means), ComponentTriple(*variances), len(columns[3]),
        res.max, res.scale,
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
        mean = div(sum_of(values, exact), count, exact)
        mean_avg = div(sum_of(averages, exact), count, exact)
        dev = [v - mean for v in values]
        dev_avg = [g - mean_avg for g in averages]
        a = div(sum_of(map(mul, dev, dev_avg), exact),
                sum_of(map(mul, dev, dev), exact), exact)
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
