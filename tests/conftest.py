import math
import random
from fractions import Fraction
from itertools import permutations
from operator import add

from qaplandscape import GeneralTensor, Permutation, QapInstance
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    _components,
    _raw_sums,
    _sums,
    _swap_sum_deltas,
    decompose,
)
from qaplandscape.oracle import heap_swaps, moments, space_points
from qaplandscape.qaplib import generate_instance


def seeded_instance(n, seed, lo=0, hi=9):
    return generate_instance(n, seed, lo, hi)


def fraction_instance(n, seed):
    """Entries with mixed denominators, none of them all integers."""
    rng = random.Random(seed)

    def square():
        return [[Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12)))
                 for _ in range(n)] for _ in range(n)]

    r, w = square(), square()
    r[0][1] = Fraction(1, 5)
    w[1][0] = Fraction(-3, 4)
    return QapInstance(r, w)


def huge_instance(n, seed):
    """Integer entries of about 10**200, with both signs."""
    rng = random.Random(seed)

    def square():
        return [[rng.randint(-9, 9) * 10**200 + rng.randint(-9, 9)
                 for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


def two_decimal_instance(n, seed):
    """Entries round(uniform(0, 10), 2): floats that are in general no short
    binary fractions, so float arithmetic on them rounds."""
    rng = random.Random(seed)

    def square():
        return [[round(rng.uniform(0, 10), 2) for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


def general_tensor(n, seed, denominators=None):
    """Random coefficients, not of product form: integers, or Fractions
    over the given denominators."""
    rng = random.Random(seed)

    def entry():
        v = rng.randint(-5, 9)
        return v if denominators is None else Fraction(v, rng.choice(denominators))

    return GeneralTensor([
        [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ])


def two_decimal_tensor(n, seed):
    """Random coefficients round(uniform(-10, 10), 2), not of product form:
    a tensor in float mode whose sums round."""
    rng = random.Random(seed)
    return GeneralTensor([
        [[[round(rng.uniform(-10, 10), 2) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
        for _ in range(n)
    ])


def exact_twin(problem):
    """The same entries as Fractions: the instance or tensor in rational
    mode."""
    if isinstance(problem, GeneralTensor):
        return GeneralTensor([[[[Fraction(v) for v in row] for row in plane]
                               for plane in block] for block in problem.psi])
    return QapInstance(
        [[Fraction(v) for v in row] for row in problem.r],
        [[Fraction(v) for v in row] for row in problem.w],
    )


def full_row(problem, x):
    """The row (c1, c2, c3, f) at x, evaluated in full."""
    return decompose(problem, x)[:3] + (problem.fitness(x),)


def evaluate_points(problem, points):
    """The literal columns (c1, c2, c3, f), one entry per point, in the
    order the points come, each point evaluated in full: the oracle of the
    streamed pass, oracle.space_moments, and so of variance_triple."""
    columns = ([], [], [], [])
    for x in points:
        for column, v in zip(columns, full_row(problem, x)):
            column.append(v)
    return columns


def neighborhood_means(row_of, x):
    """The means (oracle.moments) of the rows (c1, c2, c3, f) that row_of
    gives the swap neighbors of x."""
    return tuple(moments(column)[0] for column in zip(*map(row_of, x.neighbors())))


def rounded(q):
    """The float nearest the rational q, or inf of its sign beyond the
    float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def all_perms(n):
    return [Permutation(list(t)) for t in permutations(range(n))]


def random_perms(n, count, seed):
    rng = random.Random(seed)
    return [Permutation.random(n, rng) for _ in range(count)]


def zero_psi(n):
    return [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def tensor_with(n, entries):
    """Tensor holding the given {(i, j, p, q): value} entries, zero elsewhere."""
    psi = zero_psi(n)
    for (i, j, p, q), v in entries.items():
        psi[i][j][p][q] = v
    return GeneralTensor(psi)


def single_entry_tensor(n, i, j, p, q, value=1):
    return tensor_with(n, {(i, j, p, q): value})


def perturb_kind(monkeypatch, m, column, change):
    """Replace one column of kind m's row of KIND_CONSTANTS by
    change(original value), for the rest of the test."""
    original = KIND_CONSTANTS[m]

    def perturbed(n):
        consts = original(n)
        return consts._replace(**{column: change(getattr(consts, column))})

    monkeypatch.setitem(KIND_CONSTANTS, m, perturbed)


def space_rows(problem):
    """Every permutation's mapping with its row (c1, c2, c3, f), once each,
    in the order of oracle.space_moments: the reference for its table.

    For a QapInstance the permutations come in Heap's order from the
    identity, and the five sums of decomposition._raw_sums are carried from
    point to point by decomposition._swap_sum_deltas and turned into
    components at each point by decomposition._components, in the problem's
    own arithmetic: a rational row equals a full evaluation exactly, a float
    row is a running sum. A GeneralTensor is evaluated in full at each
    point, in lexicographic order.
    """
    if not isinstance(problem, QapInstance):
        for x in space_points(problem.n):
            sums = _sums(problem, x)
            yield x.mapping, (*_components(problem, sums), problem.fitness(x))
        return
    mapping = list(range(problem.n))
    sums = _raw_sums(problem, mapping)
    yield tuple(mapping), (*_components(problem, sums), sums[0])
    for u, v in heap_swaps(problem.n):
        sums = tuple(map(add, sums, _swap_sum_deltas(problem, mapping, u, v)))
        mapping[u], mapping[v] = mapping[v], mapping[u]
        yield tuple(mapping), (*_components(problem, sums), sums[0])
