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
part and c3 the (n-1,1) part. The component means and variances follow in
closed form (average_triple, component_variances). On both problem types
they run on the integer twin (core._integer_scaled) in Python ints, and each
value is formed once by core._ratio: a Fraction in rational mode, the
correctly rounded float in float mode. The per-point evaluators (decompose,
the wave-equation means) run in the problem's own arithmetic, by one rule
(_numerator_rows) from five sums of the point (_sums) to the components.

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
    _integer_scaled,
    _ratio,
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


def _raw_sums(inst: QapInstance, mapping):
    """The five sums that give the components at the permutation with this
    mapping, in O(n^2): (f_same, f_swapped, diag, P, Q).

    f_same = sum r_ij w_{x(i)x(j)} and f_swapped = sum r_ij w_{x(j)x(i)},
    both over all (i, j), the diagonal included; diag = sum_i r_ii
    w_{x(i)x(i)}; P pairs the off-diagonal row and column sums of r with
    those of w at the images, row with row plus column with column, and Q
    row with column plus column with row.

    Every sum is a dot product with the instance's cached flat rows: w is
    gathered once at the mapping into its n^2 entries w_{x(i)x(j)}, row by
    row (QapInstance._w_at, as fitness gathers it), and dotted with the flat
    r (_r_flat) for f_same and with the flat transpose of r (_rt_flat) for
    f_swapped; the diagonal and the marginal pairings gather the cached
    diagonal and marginals of w the same way.
    """
    exact = inst.exact
    gather = itemgetter(*mapping)
    permuted = inst._w_at(mapping)
    row_off_r, col_off_r = inst._row_off_r, inst._col_off_r
    row_off_wx, col_off_wx = gather(inst._row_off_w), gather(inst._col_off_w)
    return (
        sum_of(map(mul, inst._r_flat, permuted), exact),
        sum_of(map(mul, inst._rt_flat, permuted), exact),
        sum_of(map(mul, inst._r_diag, gather(inst._w_diag)), exact),
        sum_of(chain(map(mul, row_off_r, row_off_wx),
                     map(mul, col_off_r, col_off_wx)), exact),
        sum_of(chain(map(mul, row_off_r, col_off_wx),
                     map(mul, col_off_r, row_off_wx)), exact),
    )


def _swap_sum_deltas(inst: QapInstance, mapping, u: int, v: int):
    """Change of each of the five sums of _raw_sums when positions u and v
    of this mapping exchange their images, in O(n).

    f_same changes by swap_delta on (r, w) and f_swapped by swap_delta on
    (r, w^T); both are formed in one loop, since the two deltas pair the
    same row and column differences of r and w crosswise. Those differences
    are read from the instance's tables (QapInstance._swap_differences).
    The diagonal sum changes by one product of two differences, P and Q by
    two each. The mapping is read, not changed.
    """
    r, w = inst.r, inst.w
    a, b = mapping[u], mapping[v]
    ru, rv, wa, wb = r[u], r[v], w[a], w[b]
    diag = (ru[u] - rv[v]) * (wb[b] - wa[a])
    cross = (ru[v] - rv[u]) * (wb[a] - wa[b])
    same = diag + cross
    swapped = diag - cross
    positions, images = inst._swap_differences()
    dw_rows, dw_cols = images[a][b]
    for dr, dc, k in positions[u][v]:
        xk = mapping[k]
        dw_row = dw_rows[xk]
        dw_col = dw_cols[xk]
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
        dro_r * dro_w + dco_r * dco_w,
        dro_r * dco_w + dco_r * dro_w,
    )


def _tensor_sums(tensor: GeneralTensor, mapping):
    """The five sums of _raw_sums, read from the tensor's blocks in O(n^3).
    For each ordered pair i != j, with B = psi[i][j], a = x(i), b = x(j):
    f_same takes B[a][b] and f_swapped B[b][a], each besides the diagonal
    sum of psi[i][i][x(i)][x(i)]; P takes the off-diagonal entries of row a
    and column b of B, and Q those of row b and column a. Each sum is one
    sum_of over its entries, so a float sum is correctly rounded and f_same
    is fitness bit for bit. Only psi is read, never a marginal of r or w:
    the independent reference of _raw_sums."""
    psi, exact = tensor.psi, tensor.exact
    blocks = [(block, a, b) for i, (row, a) in enumerate(zip(psi, mapping))
              for j, (block, b) in enumerate(zip(row, mapping)) if j != i]
    diag = [psi[i][i][a][a] for i, a in enumerate(mapping)]
    return (
        sum_of(chain(diag, (block[a][b] for block, a, b in blocks)), exact),
        sum_of(chain(diag, (block[b][a] for block, a, b in blocks)), exact),
        sum_of(diag, exact),
        sum_of(chain.from_iterable(_off_diagonal_lines(blocks)), exact),
        sum_of(chain.from_iterable(_off_diagonal_lines(
            (block, b, a) for block, a, b in blocks)), exact),
    )


def _off_diagonal_lines(blocks):
    """For each (block, p, q): row p and column q of the block, each
    without its diagonal entry."""
    for block, p, q in blocks:
        row, column = block[p], itemgetter(q)
        yield row[:p]
        yield row[p + 1:]
        yield map(column, block[:q])
        yield map(column, block[q + 1:])


def _sums(problem: Problem, x: Permutation):
    """The five sums (f_same, f_swapped, diag, P, Q) at x: _raw_sums in
    O(n^2) for a QapInstance, _tensor_sums in O(n^3) for a GeneralTensor."""
    if not isinstance(problem, (QapInstance, GeneralTensor)):
        raise TypeError(f"expected QapInstance or GeneralTensor, got {type(problem)!r}")
    instance = isinstance(problem, QapInstance)
    if x.n != problem.n:
        noun = "instance" if instance else "tensor"
        raise ValueError(f"permutation size {x.n} != {noun} size {problem.n}")
    return (_raw_sums if instance else _tensor_sums)(problem, x.mapping)


def _numerator_rows(n: int):
    """The one rule from the five sums to the components: L, the least
    common multiple of the kinds' weight denominators, and for m = 1, 2, 3
    the integer row (A, B, D, G, E, Z) with
      L c_m = A f_same + B f_swapped + D diag + G P + E Q + Z T,
    T the off-diagonal coefficient total. den_m c_m weights the case masses
    by the kind's case values (a, b, g, e, z), plus den_3 diag for m = 3, and
    the masses are alpha = f_same - diag, beta = f_swapped - diag,
    gamma = P - 2 alpha, epsilon = Q - 2 beta, zeta = T less the other four.
    So A = a - 2g + z, B = b - 2e + z, G = g - z, E = e - z, Z = z and
    D = -(A + B) (+ den_3 for m = 3), each times L / den_m. Read from
    KIND_CONSTANTS at every call; formed once per n and factory of it."""
    return _rows_of(n, KIND_CONSTANTS[1], KIND_CONSTANTS[2], KIND_CONSTANTS[3])


@cache
def _rows_of(n: int, *factories: Callable[[int], KindConstants]):
    kinds = [factory(n) for factory in factories]
    lcm = math.lcm(*(consts.den for consts in kinds))
    rows = []
    for m, consts in enumerate(kinds, 1):
        a, b, g, e, z = consts.params
        same, swapped = a - 2 * g + z, b - 2 * e + z
        diag = -(same + swapped) + (consts.den if m == 3 else 0)
        scale = lcm // consts.den
        rows.append(tuple(scale * c for c in (same, swapped, diag, g - z, e - z, z)))
    return lcm, tuple(rows)


def _components(problem: Problem, sums) -> Tuple[Scalar, Scalar, Scalar]:
    """(c1, c2, c3) from the five sums of _sums: the rows of _numerator_rows
    dotted with the sums and T, over L, in the problem's own arithmetic."""
    exact = problem.exact
    lcm, (r1, r2, r3) = _numerator_rows(problem.n)
    values = (*sums, _coefficient_sums(problem)[0])
    c1 = sum_of(map(mul, r1, values), exact)
    c2 = sum_of(map(mul, r2, values), exact)
    c3 = sum_of(map(mul, r3, values), exact)
    if exact:
        return Fraction(c1, lcm), Fraction(c2, lcm), Fraction(c3, lcm)
    return c1 / lcm, c2 / lcm, c3 / lcm


def component_value_ref(tensor: GeneralTensor, m: int, x: Permutation) -> Scalar:
    """Reference component evaluator: the five sums read from the
    tensor's blocks (_tensor_sums), through the same rule as the fast path."""
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
    """Component m of the objective at x, from the problem's five sums."""
    _check_component(m)
    return _components(problem, _sums(problem, x))[m - 1]


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
    return ComponentTriple.of(*_components(problem, _sums(problem, x)))


def _coefficient_sums(problem: Problem):
    if isinstance(problem, QapInstance):
        off = problem._off_total_r * problem._off_total_w
        diag = problem._r_diag_sum * problem._w_diag_sum
        return off, diag
    return problem.coefficient_sums()


def component_average(problem: Problem, m: int) -> Scalar:
    """Closed-form mean of component m over all n! permutations: entry
    m - 1 of average_triple."""
    _check_component(m)
    return average_triple(problem)[m - 1]


def average_triple(problem: Problem) -> ComponentTriple:
    """Closed-form means of c1, c2, c3 and f over all n! permutations.

    By linearity the mean of c_m is the total off-diagonal coefficient mass
    times the kind's space mean over its weight denominator; c3 adds the
    diagonal mass divided by n. Both masses are summed on the integer twin
    (core._integer_scaled), so every mean is exact before core._ratio forms
    it once.
    """
    twin, d = _integer_scaled(problem)
    n = problem.n
    off, diag = _coefficient_sums(twin)
    kinds = [KIND_CONSTANTS[m](n) for m in (1, 2, 3)]
    means = [Fraction(off * c.mean[0], c.den * c.mean[1] * d) for c in kinds]
    means[2] += Fraction(diag, n * d)
    return ComponentTriple(*(
        _ratio(q.numerator, q.denominator, problem.exact) for q in (*means, sum(means))
    ))


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
        correction = _ratio(KIND_CONSTANTS[m](n).k, d, problem.exact) * (mean - c)
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
# pairs i != j, given as an n x n array of integers whose diagonal is
# ignored, onto its (n-2,1,1) and (n-2,2) isotypic parts, scaled so that
# they stay integers, applied to both sides of the integer twin's
# coefficients in O(n^4). They read no marginal of r or w, and are the
# independent oracle for the instance kernel below.

def _project_211(m, n: int):
    """2n times: the antisymmetric part a minus (R_i - R_j)/n, where R holds
    the row sums of a."""
    rng = range(n)
    anti = [[m[i][j] - m[j][i] if j != i else 0 for j in rng] for i in rng]
    rows = [sum(row) for row in anti]
    return [
        [n * anti[i][j] - rows[i] + rows[j] if j != i else 0 for j in rng]
        for i in rng
    ]


def _project_22(m, n: int):
    """4(n-1)(n-2) times: the symmetric part s minus v_i + v_j, where
    v_i = (S_i - V)/(n-2), S holds the row sums of s and V = sum S/(2(n-1))."""
    rng = range(n)
    sym = [[m[i][j] + m[j][i] if j != i else 0 for j in rng] for i in rng]
    rows = [sum(row) for row in sym]
    total = sum(rows)
    v = [2 * (n - 1) * s - total for s in rows]
    c = 2 * (n - 1) * (n - 2)
    return [
        [c * sym[i][j] - v[i] - v[j] if j != i else 0 for j in rng]
        for i in rng
    ]


def _first_order_variance(b, n: int) -> int:
    """|n^2 times the double-centred b|^2: the numerator of the variance of
    sum_i b[i][x(i)] / (n(n-2)) over n^4 den_3^2 dim_3."""
    rows = [sum(row) for row in b]
    cols = [sum(col) for col in zip(*b)]
    total = sum(rows)
    nn = n * n
    return sum(
        (nn * b[i][p] - n * rows[i] - n * cols[p] + total) ** 2
        for i in range(n)
        for p in range(n)
    )


def _tensor_variances(tensor: GeneralTensor) -> Tuple[int, int, int]:
    """The numerators of Var(c1), Var(c2) and Var(c3) of a tensor with
    integer coefficients, over the denominators of _variance_numerators:
    |Pi_211 Psi Pi_211|^2 and |Pi_22 Psi Pi_22|^2 at the projections'
    scales, and _first_order_variance of n(n-2) times the c3 coefficients."""
    n = tensor.n
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
            left211[p, q] = _project_211(col, n)
            left22[p, q] = _project_22(col, n)
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
            n211 += sum(v * v for row in _project_211(row211, n) for v in row)
            n22 += sum(v * v for row in _project_22(row22, n) for v in row)
    # The kind-3 value is (n-1)([x(i)=p] + [x(j)=q]) + [x(i)=q] + [x(j)=p]
    # - 1, so position i and target p collect (n-1)(t1 + t2) + t3 + t4, where
    # t1..t4 sum the off-diagonal coefficients having i and p in the roles
    # (first, first), (second, second), (first, second) and (second, first);
    # the diagonal coefficients add den_3 times themselves.
    c = KIND_CONSTANTS[3](n).den
    b = [[(n - 1) * (t1[i][p] + t2[i][p]) + t3[i][p] + t4[i][p] + c * psi[i][i][p][p]
          for p in rng] for i in rng]
    return n211, n22, _first_order_variance(b, n)


def _dot(a, b) -> int:
    """Sum of the products of paired integers, exactly."""
    return sum(map(mul, a, b))


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


def _instance_variances(inst: QapInstance) -> Tuple[int, int, int]:
    """The numerators of Var(c1), Var(c2) and Var(c3) of a QapInstance with
    integer entries, over the denominators of _variance_numerators: two dot
    products per matrix over its entries, the rest O(n) algebra on its
    cached marginals.

    With A and B as in _pair_terms, and S = rho + kappa,
    v_i = 2(n-1) S_i - sum S and c = 2(n-1)(n-2):
      |2n Pi_211 m|^2 = 2n^2 (A - B) - 2n sum (rho_i - kappa_i)^2,
      |4(n-1)(n-2) Pi_22 m|^2
          = 2c^2 (A + B) - 4c sum v_i S_i + (2n-4) sum v_i^2 + 2 (sum v)^2,
    and the numerator of Var(c_m) is that of r times that of w.
    n(n-2) times the c3 coefficients are sum_xy M_xy u_x (x) u'_y over the
    first-order vectors u = (rho, kappa, diag) of r and u' of w, with
    M = [[n-1, 1, 0], [1, n-1, 0], [0, 0, n(n-2)]]; double centring takes
    each u_x to n u_x - sum u_x, so
      n^4 den_3^2 dim_3 Var(c3) = sum M_xy M_x'y' G^r_xx' G^w_yy'
    over the Gram matrices G of the centred vectors.
    """
    n = inst.n
    nr211, nr22, gr = _pair_terms(inst._r_flat, inst._r_diag,
                                  inst._row_off_r, inst._col_off_r, n)
    nw211, nw22, gw = _pair_terms(tuple(chain.from_iterable(inst.w)), inst._w_diag,
                                  inst._row_off_w, inst._col_off_w, n)
    m = ((n - 1, 1, 0), (1, n - 1, 0), (0, 0, KIND_CONSTANTS[3](n).den))
    terms = [(x, y, v) for x, row in enumerate(m) for y, v in enumerate(row) if v]
    n3 = sum(v * u * gr[x][z] * gw[y][t] for x, y, v in terms for z, t, u in terms)
    return nr211 * nw211, nr22 * nw22, n3


def _variance_numerators(problem: Problem) -> Tuple[int, int, int, int]:
    """Var(c1), Var(c2) and Var(c3) of either problem type as integer
    numerators over one common denominator, (v1, v2, v3, den), from the
    kernel of its type run on its integer twin (core._integer_scaled),
    whose variances are d^2 times its own. Var(c_m) is the kernel's m-th
    numerator over d^2 dim_m times (2n)^4, (4(n-1)(n-2))^4 and n^4 den_3^2,
    the scales of the projections; c2 vanishes where dim_2 = 0."""
    twin, d = _integer_scaled(problem)
    kernel = _instance_variances if isinstance(twin, QapInstance) else _tensor_variances
    a, b, c = kernel(twin)
    n = problem.n
    k1, k2, k3 = (KIND_CONSTANTS[m](n) for m in (1, 2, 3))
    x = (2 * n) ** 4 * k1.dim * d * d
    b, y = (b, (4 * (n - 1) * (n - 2)) ** 4 * k2.dim * d * d) if k2.dim else (0, 1)
    z = n ** 4 * k3.den ** 2 * k3.dim * d * d
    return a * y * z, b * x * z, c * x * y, x * y * z


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

    Both problem types run on their integer twin (_variance_numerators), so
    every variance is exact and formed once by core._ratio: a Fraction in
    rational mode, the correctly rounded float of the exact variance in float
    mode, Var(f) included, and inf beyond the float range. A QapInstance costs
    two dot products per matrix over its n^2 entries and O(n) besides
    (_instance_variances); a GeneralTensor costs O(n^4) projections of its
    coefficients (_tensor_variances), the kernel's independent oracle.
    """
    *nums, den = _variance_numerators(problem)
    return ComponentTriple(*(_ratio(v, den, problem.exact) for v in (*nums, sum(nums))))
