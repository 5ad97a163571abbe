"""Permutations, problem instances, and swap-neighborhood primitives.

Everything here is a pure function. Instances and permutations are
immutable values, so they can be shared freely across threads; `swap_delta`
also accepts a plain list mapping, which it reads and never changes.

Indices are 0-based throughout. The classical problem statement indexes
facilities and locations from 1, so published formulas shift by one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter, mul, sub
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction, float]

# Smallest supported problem size. The three-way decomposition divides by
# n - 2 and the swap-neighborhood case analysis degenerates below n = 3.
MIN_SIZE = 3

# Dense four-index coefficient arrays hold n**4 entries; refuse beyond this.
MAX_TENSOR_SIZE = 32

# Float-mode checks pass a residual within this fraction of the magnitude
# of the values compared; rational mode requires exact equality.
FLOAT_TOLERANCE = 1e-9


def tolerance(scale: Scalar, exact: bool) -> Scalar:
    """Pass threshold of a check: 0 in exact mode, FLOAT_TOLERANCE times the
    magnitude scale of the values compared in float mode."""
    return 0 if exact else FLOAT_TOLERANCE * scale


def passes(residual: Scalar, scale: Scalar, exact: bool) -> bool:
    """The pass rule of every check: residual <= tolerance(scale, exact).
    Fails closed: a NaN residual or an infinite tolerance never passes."""
    return residual <= tolerance(scale, exact) < math.inf


def worst(pairs: Iterable[Tuple[Scalar, Scalar]],
          scale: Scalar = 1) -> Tuple[Scalar, Scalar]:
    """The residual and the magnitude scale of a comparison, as passes reads
    them: the largest |got - want| over the (got, want) pairs, in the values'
    own arithmetic (0.0 for floats, an exact zero for exact values, 0.0 for
    no pairs), and the largest of scale and every |value|, NaN ignored.
    Fails closed: once a difference is NaN, the residual is NaN."""
    diffs = []
    for got, want in pairs:
        diffs.append(abs(got - want))
        scale = max(scale, abs(got), abs(want))
    # A NaN ranks above every number, so max never drops it.
    return max(diffs, key=lambda d: (d != d, d), default=0.0), scale


def fsum(values) -> float:
    """math.fsum, or NaN where it raises: on infinities of both signs, or on
    an intermediate overflow. Correctly rounded, so independent of order and
    interpreter; sum_of forms every float sum with it."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def sum_of(values: Iterable[Scalar], exact: bool) -> Scalar:
    """The one reduction rule of every sum in the library: the builtin sum
    in exact mode, which is exact for int and Fraction, and fsum in float
    mode. Neither depends on the order of the terms or on the interpreter
    (the builtin float sum is compensated from Python 3.12 on)."""
    return sum(values) if exact else fsum(values)


def neighborhood_size(n: int) -> int:
    """Number of swap neighbors of a permutation of n elements: n(n-1)/2."""
    return n * (n - 1) // 2


def _ratio(num: int, den: int, exact: bool) -> Scalar:
    """The one rule that forms every statistic of the whole instance, from
    its exact integer numerator and denominator (den > 0), and each
    component at a point, from its numerator in the problem's own
    arithmetic: a Fraction in exact mode, else the float nearest num / den,
    since int / int true division rounds correctly. A quotient beyond the
    float range reads inf of its sign."""
    if exact:
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _below(rng: random.Random, width: int, count: int) -> Iterator[int]:
    """count draws uniform on 0..width-1 (width >= 1): the values, in order,
    that count calls rng.randrange(width) return, from the same stream words,
    at C speed. randrange draws getrandbits(k), k = width.bit_length(), until
    a value falls below width (Random._randbelow_with_getrandbits, the same
    from Python 3.10 to 3.13); this filters one stream of such words.
    tests/test_streams.py pins both callers to randrange replays."""
    words = map(rng.getrandbits, repeat(width.bit_length()))
    return islice(filter(width.__gt__, words), count)


def _check_swap(n: int, mapping: Sequence[int], u: int, v: int) -> None:
    """Refuse a swap whose mapping or positions do not fit size n."""
    if len(mapping) != n:
        raise ValueError(f"mapping size {len(mapping)} != problem size {n}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"swap positions must lie in 0..{n - 1}: ({u}, {v})")
    if u == v:
        raise ValueError("swap positions must differ")


def _typed_rows(rows) -> Tuple[tuple, bool]:
    """The one entry rule of both problem types: the rows, with True when
    every entry is int or Fraction (or a subclass), or with False when some
    are floats, and then every entry a float (_float_rows). Anything else, a
    bool included, and any NaN or infinity, is refused. The common cases are
    settled at C speed: the set of types, then for all-float rows, which come
    back as they are, one finiteness pass."""
    rows = tuple(rows)
    types = set(map(type, chain.from_iterable(rows)))
    if types == {int}:
        return rows, True
    if types == {float} and all(map(math.isfinite, chain.from_iterable(rows))):
        return rows, False
    for row in rows:
        for v in row:
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"matrix entries must be finite, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(f"matrix entries must be numbers, got {v!r}")
    if any(issubclass(t, float) for t in types):
        return _float_rows(rows), False
    return rows, True


def _float_rows(rows) -> tuple:
    """Rows of valid entries, every entry a float; an exact entry beyond the
    float range, which has no float value, is refused."""
    try:
        return tuple(tuple(map(float, row)) for row in rows)
    except OverflowError:
        raise ValueError("float mode needs matrix entries within the float range") from None


def _integer_values(values) -> Optional[Tuple[Sequence[int], int, bool]]:
    """A sequence of int, Fraction or float values as integers over one
    common denominator d, with d and whether the values are exact (no float
    among them): each value times d, exactly. Plain ints come back as they
    are, with d = 1. None when some float is an infinity or NaN, which has
    no exact value.

    Values are scaled through their as_integer_ratio. Floats take the power
    of two that makes the smallest nonzero magnitude, and hence every value,
    an integer, and are scaled by it in float arithmetic, which is exact for
    a power of two short of overflow.
    """
    types = set(map(type, values))
    if types == {int}:
        return values, 1, True
    if types == {float}:
        if all(map(float.is_integer, values)):
            return list(map(math.trunc, values)), 1, False
        if not all(map(math.isfinite, values)):
            return None
        shift = 53 - math.frexp(min(map(abs, filter(None, values))))[1]
        try:
            scaled = map(mul, values, repeat(2.0 ** shift))
            return list(map(math.trunc, scaled)), 1 << shift, False
        except OverflowError:  # the values span beyond the float range
            pass
    exact = not any(issubclass(t, float) for t in types)
    if not (exact or all(math.isfinite(v) for v in values if isinstance(v, float))):
        return None
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{den for _, den in ratios})
    return [num * (d // den) for num, den in ratios], d, exact


class Permutation:
    """A bijection on {0, ..., n-1}; mapping[i] is the location of item i."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]) -> None:
        m = tuple(mapping)
        n = len(m)
        if n < MIN_SIZE:
            raise ValueError(f"need at least {MIN_SIZE} elements, got {n}")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in m) \
                or sorted(m) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {list(m)!r}")
        self.mapping = m

    @classmethod
    def _wrap(cls, mapping: tuple) -> "Permutation":
        # Fast path for mappings that are bijections by construction.
        p = object.__new__(cls)
        p.mapping = mapping
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < MIN_SIZE:
            raise ValueError(f"need at least {MIN_SIZE} elements, got {n}")
        return cls._wrap(tuple(range(n)))

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Permutation":
        """Uniform random permutation drawn with rng.shuffle (Fisher-Yates)."""
        if n < MIN_SIZE:
            raise ValueError(f"need at least {MIN_SIZE} elements, got {n}")
        values = list(range(n))
        rng.shuffle(values)
        return cls._wrap(tuple(values))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"

    def swap(self, u: int, v: int) -> "Permutation":
        """New permutation with the images of positions u and v exchanged."""
        _check_swap(len(self.mapping), self.mapping, u, v)
        m = list(self.mapping)
        m[u], m[v] = m[v], m[u]
        return Permutation._wrap(tuple(m))

    def neighbors(self) -> Iterator["Permutation"]:
        """All n(n-1)/2 swap neighbors, in lexicographic (u, v) order, u < v."""
        m = self.mapping
        n = len(m)
        for u in range(n):
            for v in range(u + 1, n):
                lst = list(m)
                lst[u], lst[v] = lst[v], lst[u]
                yield Permutation._wrap(tuple(lst))


class QapInstance:
    """Distances r between locations and flows w between items, both n x n.

    No symmetry or zero diagonal is assumed. Instances whose entries are all
    int or Fraction run in exact rational mode; any float entry switches the
    whole instance to float mode (_typed_rows). Precomputed once, in O(n^2):
    r and w flattened row by row (_r_flat, _w_flat), r's transpose flattened
    the same way (_rt_flat), the diagonals (_r_diag, _w_diag), the
    off-diagonal row and column marginals (_row_off_r, _col_off_r,
    _row_off_w, _col_off_w) and the coefficient totals (coefficient_sums).
    The entry differences that the O(n) update of a whole-space or neighbor
    pass reads are tabulated on first use (_swap_differences), in O(n^3),
    and the integer twin on first use too (_integer_scaled).
    """

    __slots__ = (
        "n", "r", "w", "exact", "_r_flat", "_w_flat", "_rt_flat", "_r_diag",
        "_w_diag", "_row_off_r", "_col_off_r", "_row_off_w", "_col_off_w",
        "_sums", "_swap_tables", "_twin",
    )

    def __init__(self, r, w) -> None:
        rt = tuple(tuple(row) for row in r)
        wt = tuple(tuple(row) for row in w)
        n = len(rt)
        if n < MIN_SIZE:
            raise ValueError(f"instance size must be at least {MIN_SIZE}, got {n}")
        if any(len(row) != n for row in rt):
            raise ValueError("distance matrix is not square")
        if len(wt) != n or any(len(row) != n for row in wt):
            raise ValueError(f"flow matrix is not {n} x {n}")
        # One mode for both matrices: a float in either floats every entry.
        rows, exact = _typed_rows(rt + wt)
        rt, wt = rows[:n], rows[n:]
        self.n = n
        self.r = rt
        self.w = wt
        self.exact = exact

        self._r_flat = tuple(chain.from_iterable(rt))
        self._w_flat = tuple(chain.from_iterable(wt))
        self._rt_flat = tuple(chain.from_iterable(zip(*rt)))
        self._r_diag = r_diag = tuple(rt[i][i] for i in range(n))
        self._w_diag = w_diag = tuple(wt[p][p] for p in range(n))
        row_r = [sum_of(row, exact) for row in rt]
        col_r = [sum_of(col, exact) for col in zip(*rt)]
        row_w = [sum_of(row, exact) for row in wt]
        col_w = [sum_of(col, exact) for col in zip(*wt)]
        self._row_off_r = tuple(map(sub, row_r, r_diag))
        self._col_off_r = tuple(map(sub, col_r, r_diag))
        self._row_off_w = tuple(map(sub, row_w, w_diag))
        self._col_off_w = tuple(map(sub, col_w, w_diag))
        diag_r, diag_w = sum_of(r_diag, exact), sum_of(w_diag, exact)
        self._sums = (
            (sum_of(row_r, exact) - diag_r) * (sum_of(row_w, exact) - diag_w),
            diag_r * diag_w,
        )
        self._swap_tables = None
        self._twin = None

    def _swap_differences(self):
        """The entry differences that a swap of two images reads, built on
        first use: for positions u != v, the (r_uk - r_vk, r_ku - r_kv, k) of
        every other position k in order, and for images a != b, the
        differences w_b. - w_a. of rows and w_.b - w_.a of columns, indexed
        by image. Each is the value a direct subtraction gives."""
        if self._swap_tables is None:
            n, r, w = self.n, self.r, self.w
            r_cols, w_cols = tuple(zip(*r)), tuple(zip(*w))
            positions = [
                [
                    tuple((ru[k] - rv[k], cu[k] - cv[k], k)
                          for k in range(n) if k != u and k != v)
                    for v, (rv, cv) in enumerate(zip(r, r_cols))
                ]
                for u, (ru, cu) in enumerate(zip(r, r_cols))
            ]
            images = [
                [(tuple(map(sub, wb, wa)), tuple(map(sub, cb, ca)))
                 for wb, cb in zip(w, w_cols)]
                for wa, ca in zip(w, w_cols)
            ]
            self._swap_tables = positions, images
        return self._swap_tables

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QapInstance)
            and self.r == other.r
            and self.w == other.w
        )

    def __hash__(self) -> int:
        return hash((self.r, self.w))

    def __repr__(self) -> str:
        mode = "rational" if self.exact else "float"
        return f"<QapInstance n={self.n} mode={mode}>"

    def as_float(self) -> "QapInstance":
        """Copy of this instance with every entry a float (_float_rows)."""
        if not self.exact:
            return self
        rows = _float_rows(self.r + self.w)
        return QapInstance(rows[:self.n], rows[self.n:])

    def coefficient_sums(self):
        """(sum of r[i][j] * w[p][q] over i != j and p != q, sum of
        r[i][i] * w[p][p]), as GeneralTensor.coefficient_sums: products of
        the off-diagonal and diagonal totals of r and w, formed once."""
        return self._sums

    def _w_at(self, mapping) -> tuple:
        """w gathered at the mapping: its n^2 entries w[x(i)][x(j)], row by
        row, in the order of _r_flat."""
        # n >= MIN_SIZE, so the itemgetter of the mapping returns a tuple.
        gather = itemgetter(*mapping)
        return tuple(chain.from_iterable(map(gather, gather(self.w))))

    def fitness(self, x: Permutation) -> Scalar:
        """Total assignment cost: sum over all ordered pairs (i, j), the
        diagonal i = j included, of r[i][j] * w[x(i)][x(j)]."""
        if x.n != self.n:
            raise ValueError(f"permutation size {x.n} != instance size {self.n}")
        return sum_of(map(mul, self._r_flat, self._w_at(x.mapping)), self.exact)

    def swap_delta(self, mapping: Sequence[int], u: int, v: int) -> Scalar:
        """fitness(x.swap(u, v)) - fitness(x) for the permutation x with this
        mapping, in O(n).

        Only the terms with i or j in {u, v} change (Taillard, "Robust taboo
        search for the quadratic assignment problem", Parallel Computing
        17, 1991): rows u and v and columns u and v for every other k, plus
        the 2 x 2 block of the diagonal and the (u, v) cross terms. The
        mapping must be a bijection; it is read, not changed.
        """
        _check_swap(self.n, mapping, u, v)
        r, w = self.r, self.w
        a, b = mapping[u], mapping[v]
        ru, rv, wa, wb = r[u], r[v], w[a], w[b]
        total = (ru[u] - rv[v]) * (wb[b] - wa[a]) + (ru[v] - rv[u]) * (wb[a] - wa[b])
        for k, (rk, xk) in enumerate(zip(r, mapping)):
            if k != u and k != v:
                wk = w[xk]
                total += (ru[k] - rv[k]) * (wb[xk] - wa[xk]) \
                    + (rk[u] - rk[v]) * (wk[b] - wk[a])
        return total


class GeneralTensor:
    """Dense four-index coefficients psi[i][j][p][q] weighting the pair
    indicator [x(i)=p][x(j)=q].

    A QapInstance is the rank-factored special case psi[i][j][p][q] =
    r[i][j] * w[p][q]. Storage is dense, so construction is refused beyond
    n = 32.
    """

    __slots__ = ("n", "psi", "exact", "_sums", "_twin")

    def __init__(self, psi) -> None:
        blocks = tuple(map(tuple, psi))
        n = len(blocks)
        if n < MIN_SIZE:
            raise ValueError(f"tensor size must be at least {MIN_SIZE}, got {n}")
        if n > MAX_TENSOR_SIZE:
            raise ValueError(
                f"dense tensor storage is limited to n <= {MAX_TENSOR_SIZE}, got {n}"
            )
        planes = tuple(map(tuple, chain.from_iterable(blocks)))
        rows = tuple(map(tuple, chain.from_iterable(planes)))
        if any(len(part) != n for part in chain(blocks, planes, rows)):
            raise ValueError("tensor is not n x n x n x n")
        rows, exact = _typed_rows(rows)
        self.n = n
        self.psi = _nest(rows, n)
        self.exact = exact
        self._sums = None
        self._twin = None

    @classmethod
    def from_qap(cls, inst: QapInstance) -> "GeneralTensor":
        """Dense coefficients psi[i][j][p][q] = r[i][j] * w[p][q]."""
        if inst.n > MAX_TENSOR_SIZE:
            raise ValueError(
                f"dense tensor storage is limited to n <= {MAX_TENSOR_SIZE}, "
                f"got {inst.n}"
            )
        # The instance's entries are already validated; an overflow of their
        # products to inf stays in the tensor for the checks that use it.
        t = object.__new__(cls)
        t.n = inst.n
        t.psi = tuple(
            tuple(
                tuple(tuple(rij * wpq for wpq in wrow) for wrow in inst.w)
                for rij in rrow
            )
            for rrow in inst.r
        )
        t.exact = inst.exact
        t._sums = None
        t._twin = None
        return t

    def __repr__(self) -> str:
        mode = "rational" if self.exact else "float"
        return f"<GeneralTensor n={self.n} mode={mode}>"

    def fitness(self, x: Permutation) -> Scalar:
        """Sum over all ordered pairs (i, j) of psi[i][j][x(i)][x(j)]."""
        if x.n != self.n:
            raise ValueError(f"permutation size {x.n} != tensor size {self.n}")
        xm = x.mapping
        return sum_of(
            (plane[xi][xj] for block, xi in zip(self.psi, xm)
             for plane, xj in zip(block, xm)),
            self.exact,
        )

    def swap_delta(self, mapping: Sequence[int], u: int, v: int) -> Scalar:
        """fitness(x.swap(u, v)) - fitness(x) for the permutation x with this
        mapping, in O(n): only the pairs (i, j) with i or j in {u, v} change.
        The mapping must be a bijection; it is read, not changed."""
        _check_swap(self.n, mapping, u, v)
        psi = self.psi
        a, b = mapping[u], mapping[v]
        pu, pv = psi[u], psi[v]
        total = (pu[u][b][b] - pu[u][a][a] + pv[v][a][a] - pv[v][b][b]
                 + pu[v][b][a] - pu[v][a][b] + pv[u][a][b] - pv[u][b][a])
        for k, (pk, xk) in enumerate(zip(psi, mapping)):
            if k != u and k != v:
                puk, pvk, pku, pkv = pu[k], pv[k], pk[u], pk[v]
                total += (puk[b][xk] - puk[a][xk] + pvk[a][xk] - pvk[b][xk]
                          + pku[xk][b] - pku[xk][a] + pkv[xk][a] - pkv[xk][b])
        return total

    def coefficient_sums(self):
        """(sum of psi over i != j and p != q, sum of psi[i][i][p][p])."""
        if self._sums is None:
            psi, exact = self.psi, self.exact
            diag = sum_of(
                (psi[i][i][p][p] for i in range(self.n) for p in range(self.n)),
                exact,
            )
            # Each off-diagonal block's rows without their diagonal entry.
            off = sum_of(
                chain.from_iterable(
                    part
                    for i, block in enumerate(psi)
                    for j, plane in enumerate(block) if j != i
                    for p, row in enumerate(plane)
                    for part in (row[:p], row[p + 1:])
                ),
                exact,
            )
            self._sums = (off, diag)
        return self._sums


def _integer_scaled(problem):
    """The integer twin of a problem, on which every statistic of the whole
    instance runs, and the factor d by which it scales every value: the
    common denominator of r times that of w for a QapInstance, that of the
    coefficients for a GeneralTensor (_integer_values). Float entries are
    taken at their exact values; a problem with int entries is its own twin.
    Built once and kept on the problem. A tensor coefficient that overflowed
    to an infinity (from_qap of finite entries) has no exact value and is
    refused by its index."""
    if not isinstance(problem, (QapInstance, GeneralTensor)):
        raise TypeError(f"expected QapInstance or GeneralTensor, got {type(problem)!r}")
    if problem._twin is None:
        twin, d = _scaled(problem)
        # A problem that is its own twin keeps no reference to itself.
        problem._twin = (None if twin is problem else twin), d
    twin, d = problem._twin
    return (problem if twin is None else twin), d


def _scaled(problem):
    n = problem.n
    if isinstance(problem, QapInstance):
        r_flat, w_flat = problem._r_flat, problem._w_flat
        r, dr, _ = _integer_values(r_flat)
        w, dw, _ = _integer_values(w_flat)
        if r is r_flat and w is w_flat:
            return problem, 1
        return QapInstance(_rows(r, n), _rows(w, n)), dr * dw
    flat = [v for block in problem.psi for plane in block for row in plane for v in row]
    if not (problem.exact or all(map(math.isfinite, flat))):
        k = next(k for k, v in enumerate(flat) if not math.isfinite(v))
        index = "][".join(str(k // n**e % n) for e in (3, 2, 1, 0))
        raise ValueError(
            f"tensor coefficient psi[{index}] is {flat[k]}: it has no exact value")
    ints, d, _ = _integer_values(flat)
    if ints is flat:
        return problem, 1
    return GeneralTensor(_nest(_rows(ints, n), n)), d


def _rows(values, n: int) -> tuple:
    """values grouped n at a time, in order."""
    return tuple(zip(*[iter(values)] * n))


def _nest(rows, n: int) -> tuple:
    """The layout of a GeneralTensor's psi[i][j][p] from its n^3 rows in
    order: n rows to a plane, n planes to a block."""
    return _rows(_rows(rows, n), n)
