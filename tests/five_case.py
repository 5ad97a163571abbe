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

`tensor_case_totals` is the literal classifier: it sorts every coefficient
of a tensor into the mass of its case at x, in O(n^4). `weighted_masses` is
the same weighting applied to those masses: the definition of each
component that decomposition._numerator_rows rewrites over five sums, kept
here as the rows' reference. `sums_from_masses` maps the masses to the five
sums that decomposition._tensor_sums reads from the tensor's blocks, and so
is that pass's reference.
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


def tensor_case_totals(tensor, x):
    """Masses (s_alpha, s_beta, s_gamma, s_epsilon, s_zeta, diag) of the five
    cases and of the diagonal at x, by a direct O(n^4) pass over the
    coefficients.

    Every psi[i][j][p][q] with i != j and p != q is classified on its own
    and added to the mass of its case; the diagonal mass is the sum of
    psi[i][i][x(i)][x(i)].
    """
    n = tensor.n
    xm = x.mapping
    psi = tensor.psi
    sa = sb = sg = se = sz = 0
    for i in range(n):
        xi = xm[i]
        block = psi[i]
        for j in range(n):
            if j == i:
                continue
            xj = xm[j]
            for p, row in enumerate(block[j]):
                for q, v in enumerate(row):
                    if q == p:
                        continue
                    if p == xi:  # x(i) = p: alpha if also x(j) = q
                        if q == xj:
                            sa += v
                        else:
                            sg += v
                    elif q == xj:  # x(j) = q alone
                        sg += v
                    elif p == xj:  # x(j) = p: beta if also x(i) = q
                        if q == xi:
                            sb += v
                        else:
                            se += v
                    elif q == xi:  # x(i) = q alone
                        se += v
                    else:
                        sz += v
    diag = sum(psi[i][i][xm[i]][xm[i]] for i in range(n))
    return sa, sb, sg, se, sz, diag


def sums_from_masses(masses):
    """The five sums (f_same, f_swapped, diag, P, Q) from the six masses of
    tensor_case_totals: f_same = s_alpha + diag, f_swapped = s_beta + diag,
    P = s_gamma + 2 s_alpha and Q = s_epsilon + 2 s_beta."""
    sa, sb, sg, se, _, diag = masses
    return sa + diag, sb + diag, diag, sg + 2 * sa, se + 2 * sb


def weighted_masses(m, n, masses):
    """den_m times component m, from the six masses of tensor_case_totals:
    the five case masses weighted by kind m's case values, plus den_3 times
    the diagonal mass for m = 3."""
    consts = decomposition.KIND_CONSTANTS[m](n)
    *cases, diag = masses
    total = sum(map(mul, consts.params, cases))
    return total + consts.den * diag if m == 3 else total
