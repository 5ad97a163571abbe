"""Brute-force ground truth: neighbor averages, full-space statistics, and
a generic elementarity checker.

Everything here enumerates literally and independently of the closed-form
evaluators it is used to validate. Enumeration walks permutations in
lexicographic order, so float-mode reductions are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import Callable, Iterable, List, Optional, Tuple

from .core import Permutation, Scalar, div, neighborhood_size, passes
from .decomposition import ComponentTriple, Problem, decompose

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


def _fsum(values) -> float:
    """math.fsum, or NaN where it raises: on infinities of both signs, or on
    an intermediate overflow."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def moments(values) -> Tuple[Scalar, Scalar]:
    """Mean and population variance of a non-empty value sequence: exact for
    int/Fraction values, accumulated with math.fsum when any is a float.
    A float sum that fsum cannot form is NaN, so the checks reading it fail."""
    count = len(values)
    if not _exact(values):
        mean = _fsum(values) / count
        # Squared by multiplication: a float ** 2 raises on overflow, * gives inf.
        return mean, _fsum((v - mean) * (v - mean) for v in values) / count
    mean = Fraction(sum(values), count)
    return mean, Fraction(sum(v * v for v in values), count) - mean * mean


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
    entry per point, in the order the points come."""
    c1s, c2s, c3s, fs = [], [], [], []
    for x in points:
        t = decompose(problem, x)
        c1s.append(t.c1)
        c2s.append(t.c2)
        c3s.append(t.c3)
        fs.append(problem.fitness(x))
    return c1s, c2s, c3s, fs


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
