"""Three-way elementary split of the assignment objective under swaps.

The off-diagonal coefficients decompose through a family of five-case
functions of (x(i), x(j)) relative to a target pair (p, q). Three parameter
choices of that family are elementary landscapes, meaning their average
over the swap neighborhood is an affine function of their current value
(the wave equation), with characteristic constants 2n, 2(n-1) and n.
Weighted by 1/(2n), 1/(2(n-2)) and 1/(n(n-2)), the three choices add up,
case by case, to the pair indicator [x(i)=p][x(j)=q]. Summing against the
coefficients yields objective components with c1 + c2 + c3 = f exactly.
Diagonal coefficients psi[i][i][p][p] ride along in component 3, whose
indicator [x(i)=p] is itself elementary with constant n.

Coefficients with i = j but p != q (or i != j, p = q) are structurally
zero for every bijection and belong to neither the off-diagonal nor the
diagonal sum; they are skipped.

Over uniform permutations each component minus its mean is one isotypic
part of f under the symmetric group: c1 the (n-2,1,1) part, c2 the (n-2,2)
part and c3 the (n-1,1) part. The component variances follow in closed form
from Schur orthogonality (see component_variances).

All functions are pure; callers may parallelize across permutations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import add, itemgetter, mul, sub
from typing import Callable, Dict, NamedTuple, Tuple, Union

from .core import (
    GeneralTensor,
    Permutation,
    QapInstance,
    Scalar,
    _integer_values,
    div,
    neighborhood_size,
    sum_of,
)

Problem = Union[QapInstance, GeneralTensor]


class OmegaParams(NamedTuple):
    """Values taken in the five cases, in case order."""

    alpha: int    # x(i) = p and x(j) = q
    beta: int     # x(i) = q and x(j) = p
    gamma: int    # exactly one of x(i) = p, x(j) = q
    epsilon: int  # exactly one of x(i) = q, x(j) = p
    zeta: int     # x(i) and x(j) both avoid {p, q}


class KindConstants(NamedTuple):
    """Everything about one kind that depends on n alone."""

    params: OmegaParams    # values taken in the five cases
    k: int                 # wave-equation constant
    den: int               # weight turning the kind into its share of the pair indicator
    dim: int               # dimension of the irreducible part carrying c_m
    mean: Tuple[int, int]  # mean over the whole permutation space, as (num, den)


# The per-kind constants as functions of n, keyed by the component index
# m = 1, 2, 3. Other parameter vectors solve the underlying linear system;
# these three are the ones whose weighted sum is the pair indicator. The
# irreducible parts are (n-2,1,1), (n-2,2) and (n-1,1); the second has
# dimension 0 at n = 3, where c2 vanishes. Rows are immutable and read on
# every evaluation, so each is built once per n.
KIND_CONSTANTS: Dict[int, Callable[[int], KindConstants]] = {
    1: cache(lambda n: KindConstants(
        OmegaParams(n - 3, 1 - n, -2, 0, -1),
        2 * n, 2 * n, (n - 1) * (n - 2) // 2, (-1, 1),
    )),
    2: cache(lambda n: KindConstants(
        OmegaParams(n - 3, n - 3, 0, 0, 1),
        2 * (n - 1), 2 * (n - 2), n * (n - 3) // 2, (n - 3, n - 1),
    )),
    3: cache(lambda n: KindConstants(
        OmegaParams(2 * n - 3, 1, n - 2, 0, -1),
        n, n * (n - 2), n - 1, (1, 1),
    )),
}


def _check_pair_indices(i: int, j: int, p: int, q: int, n: int) -> None:
    if 0 <= i < n and 0 <= j < n and 0 <= p < n and 0 <= q < n and i != j and p != q:
        return
    for name, v in (("i", i), ("j", j), ("p", p), ("q", q)):
        if not (0 <= v < n):
            raise ValueError(f"index {name}={v} out of range 0..{n - 1}")
    if i == j:
        raise ValueError("positions i and j must differ")
    if p == q:
        raise ValueError("targets p and q must differ")


def _omega_case(i: int, j: int, p: int, q: int, x: Permutation) -> int:
    """Which of the five cases x is in for target pair (p, q), in
    OmegaParams order: 0 alpha, 1 beta, 2 gamma, 3 epsilon, 4 zeta."""
    _check_pair_indices(i, j, p, q, x.n)
    xi = x.mapping[i]
    xj = x.mapping[j]
    cases = (
        xi == p and xj == q,
        xi == q and xj == p,
        (xi == p) != (xj == q),
        (xi == q) != (xj == p),
        xi != p and xi != q and xj != p and xj != q,
    )
    assert sum(cases) == 1, f"cases must be exhaustive and exclusive: {cases}"
    return cases.index(True)


def omega(m: int, i: int, j: int, p: int, q: int, x: Permutation) -> int:
    """Five-case value of kind m at x, for target pair (p, q)."""
    case = _omega_case(i, j, p, q, x)
    return KIND_CONSTANTS[m](x.n).params[case]


def omega_neighborhood_sum_oracle(
    m: int, i: int, j: int, p: int, q: int, x: Permutation
) -> int:
    """Closed-form sum of kind m's value over all swap neighbors of x.

    One formula per case of x, derived by counting the neighbors falling
    into each case. Used as ground truth against literal enumeration.
    """
    n = x.n
    _check_pair_indices(i, j, p, q, n)
    a, b, g, e, z = KIND_CONSTANTS[m](n).params
    d = neighborhood_size(n)
    xi = x.mapping[i]
    xj = x.mapping[j]
    if xi == p and xj == q:
        return b + 2 * (n - 2) * g + (d - 2 * n + 3) * a
    if xi == q and xj == p:
        return a + 2 * (n - 2) * e + (d - 2 * n + 3) * b
    if (xi == p) != (xj == q):
        return a + 2 * e + (n - 3) * z + (d - n) * g
    if (xi == q) != (xj == p):
        return b + 2 * g + (n - 3) * z + (d - n) * e
    return 2 * g + 2 * e + (d - 4) * z


def _check_component(m: int) -> None:
    if m not in (1, 2, 3):
        raise ValueError(f"component index must be 1, 2 or 3, got {m}")


def _tensor_case_totals(tensor: GeneralTensor, x: Permutation):
    """Coefficient mass of each of the five cases at x, by a direct O(n^4)
    pass over the coefficients: the independent oracle for _case_totals.

    Every psi[i][j][p][q] with i != j and p != q is classified on its own
    and added to the mass of its case; the diagonal mass is the sum of
    psi[i][i][x(i)][x(i)]. Returns the same 6-tuple as _case_totals.
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
    diag = sum_of((psi[i][i][xm[i]][xm[i]] for i in range(n)), tensor.exact)
    return sa, sb, sg, se, sz, diag


def _raw_sums(inst: QapInstance, mapping):
    """The seven sums behind the case masses at the permutation with this
    mapping, in O(n^2): (f_same, f_swapped, diag, p1, p2, q1, q2).

    f_same = sum r_ij w_{x(i)x(j)} and f_swapped = sum r_ij w_{x(j)x(i)},
    both over all (i, j), the diagonal included; diag = sum_i r_ii
    w_{x(i)x(i)}; p1, p2, q1 and q2 pair the off-diagonal row and column
    sums of r with those of w at the images: row with row, column with
    column, row with column and column with row.

    Every sum is a dot product with the instance's cached flat rows: w is
    gathered once at the mapping into its n^2 entries w_{x(i)x(j)}, row by
    row, and dotted with the flat r (_r_flat) for f_same and with the flat
    transpose of r (_rt_flat) for f_swapped; the diagonal and the four
    marginal pairings gather the cached diagonal and marginals of w the
    same way.
    """
    exact = inst.exact
    # n >= MIN_SIZE, so the itemgetter of the mapping returns a tuple.
    gather = itemgetter(*mapping)
    permuted = tuple(chain.from_iterable(map(gather, gather(inst.w))))
    row_off_r, col_off_r = inst._row_off_r, inst._col_off_r
    row_off_wx, col_off_wx = gather(inst._row_off_w), gather(inst._col_off_w)
    return (
        sum_of(map(mul, inst._r_flat, permuted), exact),
        sum_of(map(mul, inst._rt_flat, permuted), exact),
        sum_of(map(mul, inst._r_diag, gather(inst._w_diag)), exact),
        sum_of(map(mul, row_off_r, row_off_wx), exact),
        sum_of(map(mul, col_off_r, col_off_wx), exact),
        sum_of(map(mul, row_off_r, col_off_wx), exact),
        sum_of(map(mul, col_off_r, row_off_wx), exact),
    )


def _swap_sum_deltas(inst: QapInstance, mapping, u: int, v: int):
    """Change of each of the seven sums of _raw_sums when positions u and v
    of this mapping exchange their images, in O(n).

    f_same changes by swap_delta on (r, w) and f_swapped by swap_delta on
    (r, w^T); both are formed in one loop, since the two deltas pair the
    same row and column differences of r and w crosswise. The other five
    sums each change by one product of two differences. The mapping is
    read, not changed.
    """
    r, w = inst.r, inst.w
    a, b = mapping[u], mapping[v]
    ru, rv, wa, wb = r[u], r[v], w[a], w[b]
    diag = (ru[u] - rv[v]) * (wb[b] - wa[a])
    cross = (ru[v] - rv[u]) * (wb[a] - wa[b])
    same = diag + cross
    swapped = diag - cross
    for k, (rk, xk) in enumerate(zip(r, mapping)):
        if k != u and k != v:
            wk = w[xk]
            dr = ru[k] - rv[k]
            dc = rk[u] - rk[v]
            dw_row = wb[xk] - wa[xk]
            dw_col = wk[b] - wk[a]
            same += dr * dw_row + dc * dw_col
            swapped += dr * dw_col + dc * dw_row
    ro_r, co_r = inst._row_off_r, inst._col_off_r
    ro_w, co_w = inst._row_off_w, inst._col_off_w
    dro_r = ro_r[u] - ro_r[v]
    dco_r = co_r[u] - co_r[v]
    dro_w = ro_w[b] - ro_w[a]
    dco_w = co_w[b] - co_w[a]
    return (
        same,
        swapped,
        diag,
        dro_r * dro_w,
        dco_r * dco_w,
        dro_r * dco_w,
        dco_r * dro_w,
    )


def _masses_from_sums(inst: QapInstance, sums):
    """The 6-tuple of case masses from the seven sums of _raw_sums.

    For product-form coefficients r[i][j] * w[p][q] the five case sums
    factor through row/column marginals of r and w:
      alpha case: sum r_ij w_{x(i)x(j)} over i != j,
      beta case:  sum r_ij w_{x(j)x(i)} over i != j,
    and the one-sided cases reduce to marginal sums minus those two.
    """
    f_same, f_swapped, diag, p1, p2, q1, q2 = sums
    s_alpha = f_same - diag
    s_beta = f_swapped - diag
    s_gamma = p1 + p2 - 2 * s_alpha
    s_epsilon = q1 + q2 - 2 * s_beta
    s_zeta = (
        inst._off_total_r * inst._off_total_w
        - s_alpha - s_beta - s_gamma - s_epsilon
    )
    return s_alpha, s_beta, s_gamma, s_epsilon, s_zeta, diag


def _case_totals(inst: QapInstance, x: Permutation):
    """Coefficient mass of each of the five cases at x, in O(n^2).

    Returns (s_alpha, s_beta, s_gamma, s_epsilon, s_zeta, diag) where diag
    is the diagonal mass sum_i r_ii w_{x(i)x(i)}.
    """
    return _masses_from_sums(inst, _raw_sums(inst, x.mapping))


def _numerator(m: int, consts: KindConstants, totals) -> Scalar:
    """consts.den times component m, from the five case masses and the
    diagonal mass: the masses weighted by the kind's case values. Component
    3 also carries the diagonal mass."""
    a, b, g, e, z = consts.params
    sa, sb, sg, se, sz, diag = totals
    num = a * sa + b * sb + g * sg + e * se + z * sz
    if m == 3:
        num = num + consts.den * diag
    return num


def _value_from_totals(problem: Problem, m: int, totals) -> Scalar:
    """Component m from the five case masses and the diagonal mass, over
    its weight denominator."""
    consts = KIND_CONSTANTS[m](problem.n)
    return div(_numerator(m, consts, totals), consts.den, problem.exact)


def _case_masses(problem: Problem, x: Permutation):
    """The 6-tuple of case masses at x: O(n^2) for a QapInstance, the
    O(n^4) reference pass for a GeneralTensor."""
    if isinstance(problem, QapInstance):
        noun, totals = "instance", _case_totals
    elif isinstance(problem, GeneralTensor):
        noun, totals = "tensor", _tensor_case_totals
    else:
        raise TypeError(f"expected QapInstance or GeneralTensor, got {type(problem)!r}")
    if x.n != problem.n:
        raise ValueError(f"permutation size {x.n} != {noun} size {problem.n}")
    return totals(problem, x)


def component_value_ref(tensor: GeneralTensor, m: int, x: Permutation) -> Scalar:
    """Reference component evaluator: the case masses of a direct O(n^4)
    sum over the coefficients, weighted by kind m's case values."""
    if not isinstance(tensor, GeneralTensor):
        raise TypeError("reference path is defined for general tensors only")
    return component_value(tensor, m, x)


def component_value_fast(inst: QapInstance, m: int, x: Permutation) -> Scalar:
    """O(n^2) component evaluator for product-form instances.

    Contract: agrees exactly (rational mode) with component_value_ref on
    the tensor built from the same instance.
    """
    if not isinstance(inst, QapInstance):
        raise TypeError("fast path is defined for product-form instances only")
    return component_value(inst, m, x)


def component_value(problem: Problem, m: int, x: Permutation) -> Scalar:
    """Component m of the objective at x, from the problem type's case masses."""
    _check_component(m)
    return _value_from_totals(problem, m, _case_masses(problem, x))


def _components(problem: Problem, totals) -> Tuple[Scalar, Scalar, Scalar]:
    """(c1, c2, c3) from the five case masses and the diagonal mass."""
    return (
        _value_from_totals(problem, 1, totals),
        _value_from_totals(problem, 2, totals),
        _value_from_totals(problem, 3, totals),
    )


class ComponentTriple(NamedTuple):
    """The three components and the objective: values at one permutation,
    or means or variances over all n! permutations."""

    c1: Scalar
    c2: Scalar
    c3: Scalar
    total: Scalar

    @classmethod
    def of(cls, c1: Scalar, c2: Scalar, c3: Scalar) -> "ComponentTriple":
        return cls(c1, c2, c3, c1 + c2 + c3)


def decompose(problem: Problem, x: Permutation) -> ComponentTriple:
    """Split the objective at x into its three elementary components.

    The total equals the plain objective value, exactly in rational mode
    and to 1e-9 relative in float mode.
    """
    return ComponentTriple.of(*_components(problem, _case_masses(problem, x)))


def _coefficient_sums(problem: Problem):
    if isinstance(problem, QapInstance):
        off = problem._off_total_r * problem._off_total_w
        diag = problem._r_diag_sum * problem._w_diag_sum
        return off, diag
    if isinstance(problem, GeneralTensor):
        return problem.coefficient_sums()
    raise TypeError(f"expected QapInstance or GeneralTensor, got {type(problem)!r}")


def component_average(problem: Problem, m: int) -> Scalar:
    """Closed-form mean of component m over all n! permutations.

    By linearity the mean is the total off-diagonal coefficient mass times
    the kind's space mean over its weight denominator; component 3 adds the
    diagonal mass divided by n.
    """
    _check_component(m)
    n = problem.n
    exact = problem.exact
    off, diag = _coefficient_sums(problem)
    consts = KIND_CONSTANTS[m](n)
    num, den = consts.mean
    value = div(off * num, consts.den * den, exact)
    if m == 3:
        value = value + div(diag, n, exact)
    return value


def average_triple(problem: Problem) -> ComponentTriple:
    return ComponentTriple.of(
        component_average(problem, 1),
        component_average(problem, 2),
        component_average(problem, 3),
    )


def _wave_means(problem: Problem, x: Permutation,
                averages: ComponentTriple) -> ComponentTriple:
    """Wave-equation predictions of the means of c1, c2, c3 and f over the
    swap neighbors of x, from one decompose and one objective value, given
    the problem's average_triple: c_m(x) + (k_m / d) (mean_m - c_m(x)) with
    k_m in {2n, 2(n-1), n}, and f(x) plus the three corrections."""
    n = problem.n
    d = neighborhood_size(n)
    t = decompose(problem, x)
    f = problem.fitness(x)
    means = []
    for m, mean, c in zip((1, 2, 3), averages, t):
        correction = div(KIND_CONSTANTS[m](n).k, d, problem.exact) * (mean - c)
        means.append(c + correction)
        f = f + correction
    return ComponentTriple(*means, f)


def wave_predict_component(problem: Problem, m: int, x: Permutation) -> Scalar:
    """Wave-equation prediction of the neighborhood mean of component m."""
    _check_component(m)
    return _wave_means(problem, x, average_triple(problem))[m - 1]


def neighborhood_avg_wave(problem: Problem, x: Permutation) -> Scalar:
    """Mean objective value over the swap neighbors of x, via the three
    per-component wave equations: f(x) + sum_m (k_m / d) (mean_m - c_m(x)).
    """
    return _wave_means(problem, x, average_triple(problem)).total


# The variances of a GeneralTensor: projections of a function on ordered
# pairs i != j, given as an n x n array whose diagonal is ignored, onto its
# (n-2,1,1) and (n-2,2) isotypic parts, scaled so that integer entries stay
# integers, applied to both sides of the coefficients in O(n^4). They are
# the independent oracle for the instance kernel below.

def _project_211(m, n: int, exact: bool):
    """2n times: the antisymmetric part a minus (R_i - R_j)/n, where R holds
    the row sums of a."""
    rng = range(n)
    anti = [[m[i][j] - m[j][i] if j != i else 0 for j in rng] for i in rng]
    rows = [sum_of(row, exact) for row in anti]
    return [
        [n * anti[i][j] - rows[i] + rows[j] if j != i else 0 for j in rng]
        for i in rng
    ]


def _project_22(m, n: int, exact: bool):
    """4(n-1)(n-2) times: the symmetric part s minus v_i + v_j, where
    v_i = (S_i - V)/(n-2), S holds the row sums of s and V = sum S/(2(n-1))."""
    rng = range(n)
    sym = [[m[i][j] + m[j][i] if j != i else 0 for j in rng] for i in rng]
    rows = [sum_of(row, exact) for row in sym]
    total = sum_of(rows, exact)
    v = [2 * (n - 1) * s - total for s in rows]
    c = 2 * (n - 1) * (n - 2)
    return [
        [c * sym[i][j] - v[i] - v[j] if j != i else 0 for j in rng]
        for i in rng
    ]


def _sum_sq(m, exact: bool) -> Scalar:
    return sum_of((v * v for row in m for v in row), exact)


def _schur_variance(norm_sq: Scalar, scale: int, m: int, n: int,
                    exact: bool) -> Scalar:
    """Variance of a multiplicity-one isotypic part: the squared norms of
    both projected sides over the irreducible dimension. norm_sq carries the
    projections' scale on each side, hence scale**4."""
    dim = KIND_CONSTANTS[m](n).dim
    if dim == 0:
        return div(0, 1, exact)
    return div(norm_sq, scale**4 * dim, exact)


def _first_order_variance(b, n: int, exact: bool) -> Scalar:
    """Variance of c3(x) = sum_i b[i][x(i)] / (n(n-2)) plus a constant:
    the squared norm of the double-centred b over n-1, scaled back."""
    rows = [sum_of(row, exact) for row in b]
    cols = [sum_of(col, exact) for col in zip(*b)]
    total = sum_of(rows, exact)
    nn = n * n
    # Squared by multiplication: a float ** 2 raises on overflow, * gives inf.
    centred = (
        nn * b[i][p] - n * rows[i] - n * cols[p] + total
        for i in range(n)
        for p in range(n)
    )
    sq = sum_of((v * v for v in centred), exact)
    consts = KIND_CONSTANTS[3](n)
    return div(sq, nn * nn * consts.den * consts.den * consts.dim, exact)


def _c3_coefficients(t1, t2, t3, t4, diag, n: int):
    """n(n-2) times the first-order coefficients of c3. The kind-3 value is
    (n-1)([x(i)=p] + [x(j)=q]) + [x(i)=q] + [x(j)=p] - 1, so position i and
    target p collect (n-1)(t1 + t2) + t3 + t4, where t1..t4 sum the
    off-diagonal coefficients having i and p in the roles (first, first),
    (second, second), (first, second) and (second, first)."""
    c = KIND_CONSTANTS[3](n).den
    return [
        [
            (n - 1) * (t1[i][p] + t2[i][p]) + t3[i][p] + t4[i][p] + c * diag[i][p]
            for p in range(n)
        ]
        for i in range(n)
    ]


def _tensor_variances(tensor: GeneralTensor):
    n, exact = tensor.n, tensor.exact
    psi = tensor.psi
    rng = range(n)
    t1, t2, t3, t4 = ([[0] * n for _ in rng] for _ in range(4))
    # Project the position side of every target-pair column, then the
    # target side of every position-pair row of the result.
    left211, left22 = {}, {}
    for p in rng:
        for q in rng:
            if q == p:
                continue
            col = [[psi[i][j][p][q] for j in rng] for i in rng]
            left211[p, q] = _project_211(col, n, exact)
            left22[p, q] = _project_22(col, n, exact)
            for i in rng:
                for j in rng:
                    if j != i:
                        v = col[i][j]
                        t1[i][p] += v
                        t2[j][q] += v
                        t3[i][q] += v
                        t4[j][p] += v
    n211 = n22 = 0
    for i in rng:
        for j in rng:
            if j == i:
                continue
            row211 = [[left211[p, q][i][j] if q != p else 0 for q in rng] for p in rng]
            row22 = [[left22[p, q][i][j] if q != p else 0 for q in rng] for p in rng]
            n211 += _sum_sq(_project_211(row211, n, exact), exact)
            n22 += _sum_sq(_project_22(row22, n, exact), exact)
    diag = [[psi[i][i][p][p] for p in rng] for i in rng]
    return n211, n22, _c3_coefficients(t1, t2, t3, t4, diag, n)


def _dot(a, b) -> int:
    """Sum of the products of paired integers, exactly."""
    return sum(map(mul, a, b))


def _integer_matrix(flat, types, n: int, diag, rho, kappa):
    """One matrix of an instance, flattened row by row, as integers, with
    its diagonal, its off-diagonal row and column sums and the factor d that
    scales it. Int entries are their own integer view, with the cached
    marginals; others are scaled by core._integer_values."""
    ints, d = _integer_values(flat, types)
    if ints is not flat:
        diag = ints[::n + 1]
        rho = [sum(ints[k:k + n]) - x for k, x in zip(range(0, n * n, n), diag)]
        kappa = [sum(ints[j::n]) - x for j, x in enumerate(diag)]
    return ints, diag, rho, kappa, d


def _pair_terms(flat, diag, rho, kappa, n: int):
    """For one integer matrix m, flattened row by row, with off-diagonal row
    and column sums rho and kappa: |2n Pi_211 m|^2, |4(n-1)(n-2) Pi_22 m|^2
    and the Gram matrix of its centred first-order vectors
    (n rho - sum rho, n kappa - sum kappa, n diag - sum diag). The only
    O(n^2) work is two dot products over the entries, A = sum m_ij^2 and
    B = sum m_ij m_ji, both over i != j; B is twice its sum over i < j, each
    row right of the diagonal against the column below it."""
    a = _dot(flat, flat) - _dot(diag, diag)
    b = 2 * sum(_dot(flat[k + 1:k + n - i], flat[k + n::n])
                for i, k in enumerate(range(0, n * n, n + 1)))
    diff = list(map(sub, rho, kappa))
    n211 = 2 * n * n * (a - b) - 2 * n * _dot(diff, diff)
    s = list(map(add, rho, kappa))
    total = sum(s)
    v = [2 * (n - 1) * x - total for x in s]
    sv = sum(v)
    c = 2 * (n - 1) * (n - 2)
    n22 = (2 * c * c * (a + b) - 4 * c * _dot(v, s)
           + (2 * n - 4) * _dot(v, v) + 2 * sv * sv)
    p, q, e = ([n * x - t for x in u] for u, t in
               ((u, sum(u)) for u in (rho, kappa, diag)))
    pq, pe, qe = _dot(p, q), _dot(p, e), _dot(q, e)
    gram = ((_dot(p, p), pq, pe), (pq, _dot(q, q), qe), (pe, qe, _dot(e, e)))
    return n211, n22, gram


def _rounded(num: int, den: int) -> float:
    """The float nearest num / den: int / int true division rounds
    correctly. A variance, never negative, beyond the float range reads
    +inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _instance_variances(inst: QapInstance) -> ComponentTriple:
    """component_variances of a QapInstance, in integers: two dot products
    per matrix over its entries, the rest O(n) algebra on the marginals.

    With A and B as in _pair_terms, and S = rho + kappa,
    v_i = 2(n-1) S_i - sum S and c = 2(n-1)(n-2):
      |2n Pi_211 m|^2 = 2n^2 (A - B) - 2n sum (rho_i - kappa_i)^2,
      |4(n-1)(n-2) Pi_22 m|^2
          = 2c^2 (A + B) - 4c sum v_i S_i + (2n-4) sum v_i^2 + 2 (sum v)^2.
    n(n-2) times the c3 coefficients are sum_xy M_xy u_x (x) u'_y over the
    first-order vectors u = (rho, kappa, diag) of r and u' of w, with
    M = [[n-1, 1, 0], [1, n-1, 0], [0, 0, n(n-2)]]; double centring takes
    each u_x to n u_x - sum u_x, so
      n^4 den_3^2 dim_3 Var(c3) = sum M_xy M_x'y' G^r_xx' G^w_yy'
    over the Gram matrices G of the centred vectors.
    """
    n = inst.n
    types_r, types_w = inst._types
    *r, dr = _integer_matrix(inst._r_flat, types_r, n, inst._r_diag,
                             inst._row_off_r, inst._col_off_r)
    *w, dw = _integer_matrix(tuple(chain.from_iterable(inst.w)), types_w, n,
                             inst._w_diag, inst._row_off_w, inst._col_off_w)
    nr211, nr22, gr = _pair_terms(*r, n)
    nw211, nw22, gw = _pair_terms(*w, n)
    k1, k2, k3 = (KIND_CONSTANTS[m](n) for m in (1, 2, 3))
    m = ((n - 1, 1, 0), (1, n - 1, 0), (0, 0, k3.den))
    terms = [(x, y, v) for x, row in enumerate(m) for y, v in enumerate(row) if v]
    n3 = sum(v * u * gr[x][z] * gw[y][t] for x, y, v in terms for z, t, u in terms)
    dd = (dr * dw) ** 2
    # Each variance as (numerator, denominator); c2 vanishes where dim_2 = 0.
    parts = [
        (nr211 * nw211, (2 * n) ** 4 * k1.dim * dd),
        (nr22 * nw22, (4 * (n - 1) * (n - 2)) ** 4 * k2.dim * dd) if k2.dim else (0, 1),
        (n3, n ** 4 * k3.den ** 2 * k3.dim * dd),
    ]
    if inst.exact:
        return ComponentTriple.of(*(Fraction(*part) for part in parts))
    (a, x), (b, y), (c, z) = parts
    parts.append((a * y * z + b * x * z + c * x * y, x * y * z))
    return ComponentTriple(*(_rounded(*part) for part in parts))


def component_variances(problem: Problem) -> ComponentTriple:
    """Population variances of c1, c2, c3 and f over all n! permutations,
    in closed form.

    The off-diagonal part of f is a matrix coefficient <r, rho(x) w> of the
    permutation action on ordered pairs (for a tensor, <Psi, rho(x)> with
    the n(n-1) x n(n-1) coefficient matrix Psi). Its (n-2,1,1) and (n-2,2)
    parts occur once each, so by Schur orthogonality
    Var(c_m) = |Pi r|^2 |Pi w|^2 / d_m (for a tensor |Pi Psi Pi|^2 / d_m),
    with d_1 = (n-1)(n-2)/2 and d_2 = n(n-3)/2. c3 is first order,
    sum_i A[i][x(i)] plus a constant, and Var(c3) = |double-centred A|^2/(n-1).
    The parts are orthogonal, so the three variances add up to Var(f).

    A QapInstance costs two dot products per matrix over its n^2 entries
    and O(n) besides (_instance_variances). Its entries are scaled to
    integers exactly and every step is integer arithmetic, so rational mode
    returns Fractions and float mode the correctly rounded float of each
    exact variance, Var(f) included; a variance beyond the float range reads
    inf. A GeneralTensor costs O(n^4) projections, in the problem's own
    arithmetic: exact in rational mode.
    """
    if isinstance(problem, QapInstance):
        return _instance_variances(problem)
    if not isinstance(problem, GeneralTensor):
        raise TypeError(
            f"expected QapInstance or GeneralTensor, got {type(problem)!r}"
        )
    n = problem.n
    exact = problem.exact
    n211, n22, b = _tensor_variances(problem)
    v1 = _schur_variance(n211, 2 * n, 1, n, exact)
    v2 = _schur_variance(n22, 4 * (n - 1) * (n - 2), 2, n, exact)
    v3 = _first_order_variance(b, n, exact)
    return ComponentTriple.of(v1, v2, v3)
