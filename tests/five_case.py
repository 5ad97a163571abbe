"""The two lemmas of the five-case family, as checks over enumerated points.

Both lemmas hold in n alone, for every instance:
- the closed form `omega_neighborhood_sum_oracle` equals the literal sum of
  a kind's value over the swap neighbours of x;
- the mean of a kind's value over all n! permutations equals
  `KIND_CONSTANTS[m](n).mean`.

Each permutation is classified once per index tuple; the three kinds'
values follow from the five case counts. Both checkers look up
`omega_neighborhood_sum_oracle` and `KIND_CONSTANTS` on the decomposition
module at call time, so a monkeypatched replacement is what they check.
See tests/test_five_case.py for why the tested points suffice.
"""

from fractions import Fraction
from operator import mul

from qaplandscape import decomposition
from qaplandscape.decomposition import _omega_case
from qaplandscape.oracle import space_points

KINDS = (1, 2, 3)


def pair_tuples(n):
    """Every index tuple (i, j, p, q) with i != j and p != q."""
    return [
        (i, j, p, q)
        for i in range(n)
        for j in range(n)
        if j != i
        for p in range(n)
        for q in range(n)
        if q != p
    ]


def case_counts(i, j, p, q, xs):
    """How many of the permutations xs fall into each of the five cases."""
    counts = [0] * 5
    for x in xs:
        counts[_omega_case(i, j, p, q, x)] += 1
    return counts


def _kind_total(m, n, counts):
    return sum(map(mul, decomposition.KIND_CONSTANTS[m](n).params, counts))


def case_sum_mismatches(n, tuples):
    """(m, tuple, x) for every kind m, tuple and permutation x of size n at
    which the closed-form neighbour sum differs from the literal one."""
    failed = []
    for x in space_points(n):
        neighbors = list(x.neighbors())
        for t in tuples:
            counts = case_counts(*t, neighbors)
            for m in KINDS:
                closed = decomposition.omega_neighborhood_sum_oracle(m, *t, x)
                if closed != _kind_total(m, n, counts):
                    failed.append((m, t, x))
    return failed


def space_mean_mismatches(n, tuples):
    """(m, tuple, mean) for every kind m and tuple whose mean over all n!
    permutations differs from the table's; mean is the enumerated one."""
    points = list(space_points(n))
    failed = []
    for t in tuples:
        counts = case_counts(*t, points)
        for m in KINDS:
            mean = Fraction(_kind_total(m, n, counts), len(points))
            if mean != Fraction(*decomposition.KIND_CONSTANTS[m](n).mean):
                failed.append((m, t, mean))
    return failed
