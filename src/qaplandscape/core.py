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
from itertools import chain, repeat
from operator import mul, sub
from typing import Iterable, Iterator, Sequence, Tuple, Union

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


def div(value: Scalar, divisor: Scalar, exact: bool) -> Scalar:
    """value / divisor: a Fraction in exact (rational) mode, else a float."""
    return Fraction(value, divisor) if exact else value / divisor


def _check_swap(n: int, mapping: Sequence[int], u: int, v: int) -> None:
    """Refuse a swap whose mapping or positions do not fit size n."""
    if len(mapping) != n:
        raise ValueError(f"mapping size {len(mapping)} != problem size {n}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"swap positions must lie in 0..{n - 1}: ({u}, {v})")
    if u == v:
        raise ValueError("swap positions must differ")


def _entry_types(rows) -> set:
    """The set of entry types, each int, Fraction or float (or a subclass).

    Anything else, a bool included, and any NaN or infinity, is refused.
    The common cases are settled at C speed: the set of types first, then,
    for all-float entries, one finiteness pass.
    """
    rows = tuple(rows)
    types = set(map(type, chain.from_iterable(rows)))
    if types == {int}:
        return types
    if types == {float} and all(map(math.isfinite, chain.from_iterable(rows))):
        return types
    for row in rows:
        for v in row:
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"matrix entries must be finite, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(f"matrix entries must be numbers, got {v!r}")
    return types


def _entries_are_exact(rows) -> bool:
    """True when every entry is int or Fraction, False when some are floats;
    anything else is refused (_entry_types)."""
    return not any(issubclass(t, float) for t in _entry_types(rows))


def _integer_values(values, types=None) -> Tuple[Sequence[int], int]:
    """A sequence of int, Fraction or finite float values as integers over
    one common denominator, and that denominator d: each value times d,
    exactly. Plain ints come back as they are, with d = 1. types is the set
    of value types, when known.

    Values are scaled through their as_integer_ratio. Floats take the power
    of two that makes the smallest nonzero magnitude, and hence every value,
    an integer, and are scaled by it in float arithmetic, which is exact for
    a power of two short of overflow.
    """
    if types is None:
        types = set(map(type, values))
    if types == {int}:
        return values, 1
    if types == {float}:
        if all(map(float.is_integer, values)):
            return list(map(math.trunc, values)), 1
        shift = 53 - math.frexp(min(map(abs, filter(None, values))))[1]
        try:
            scaled = map(mul, values, repeat(2.0 ** shift))
            return list(map(math.trunc, scaled)), 1 << shift
        except OverflowError:  # the values span beyond the float range
            pass
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{den for _, den in ratios})
    return [num * (d // den) for num, den in ratios], d


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
    whole instance to float mode. Precomputed once for the O(n^2) kernels:
    r flattened row by row (_r_flat), its transpose flattened the same way
    (_rt_flat), the diagonals of r and w, the off-diagonal row/column
    marginals of both, and the set of entry types of each (_types).
    """

    __slots__ = (
        "n", "r", "w", "exact", "_r_flat", "_rt_flat", "_r_diag", "_w_diag",
        "_row_off_r", "_col_off_r", "_row_off_w", "_col_off_w",
        "_off_total_r", "_off_total_w", "_r_diag_sum", "_w_diag_sum",
        "_types",
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
        types = (_entry_types(rt), _entry_types(wt))
        exact = not any(issubclass(t, float) for t in types[0] | types[1])
        if not exact:
            rt = tuple(tuple(map(float, row)) for row in rt)
            wt = tuple(tuple(map(float, row)) for row in wt)
            types = ({float}, {float})
        self.n = n
        self.r = rt
        self.w = wt
        self.exact = exact
        self._types = types

        self._r_flat = tuple(chain.from_iterable(rt))
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
        self._r_diag_sum = sum_of(r_diag, exact)
        self._w_diag_sum = sum_of(w_diag, exact)
        self._off_total_r = sum_of(row_r, exact) - self._r_diag_sum
        self._off_total_w = sum_of(row_w, exact) - self._w_diag_sum

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
        """Copy of this instance with every entry coerced to float."""
        if not self.exact:
            return self
        return QapInstance(
            [[float(v) for v in row] for row in self.r],
            [[float(v) for v in row] for row in self.w],
        )

    def fitness(self, x: Permutation) -> Scalar:
        """Total assignment cost: sum over all ordered pairs (i, j), the
        diagonal i = j included, of r[i][j] * w[x(i)][x(j)]."""
        if x.n != self.n:
            raise ValueError(f"permutation size {x.n} != instance size {self.n}")
        xm = x.mapping
        return sum_of(
            (
                a * wrow[b]
                for ri, wrow in zip(self.r, map(self.w.__getitem__, xm))
                for a, b in zip(ri, xm)
            ),
            self.exact,
        )

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

    __slots__ = ("n", "psi", "exact", "_sums")

    def __init__(self, psi) -> None:
        t = tuple(
            tuple(tuple(tuple(row) for row in plane) for plane in block)
            for block in psi
        )
        n = len(t)
        if n < MIN_SIZE:
            raise ValueError(f"tensor size must be at least {MIN_SIZE}, got {n}")
        if n > MAX_TENSOR_SIZE:
            raise ValueError(
                f"dense tensor storage is limited to n <= {MAX_TENSOR_SIZE}, got {n}"
            )
        for block in t:
            if len(block) != n:
                raise ValueError("tensor is not n x n x n x n")
            for plane in block:
                if len(plane) != n or any(len(row) != n for row in plane):
                    raise ValueError("tensor is not n x n x n x n")
        exact = _entries_are_exact(
            row for block in t for plane in block for row in plane
        )
        if not exact:
            t = tuple(
                tuple(
                    tuple(tuple(float(v) for v in row) for row in plane)
                    for plane in block
                )
                for block in t
            )
        self.n = n
        self.psi = t
        self.exact = exact
        self._sums = None

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
        return t

    def __repr__(self) -> str:
        mode = "rational" if self.exact else "float"
        return f"<GeneralTensor n={self.n} mode={mode}>"

    def fitness(self, x: Permutation) -> Scalar:
        """Sum over all ordered pairs (i, j) of psi[i][j][x(i)][x(j)]."""
        if x.n != self.n:
            raise ValueError(f"permutation size {x.n} != tensor size {self.n}")
        xm = x.mapping
        total = 0
        for block, xi in zip(self.psi, xm):
            for plane, xj in zip(block, xm):
                total += plane[xi][xj]
        return total

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
            off = sum_of(
                (
                    v
                    for i, block in enumerate(psi)
                    for j, plane in enumerate(block) if j != i
                    for p, row in enumerate(plane)
                    for q, v in enumerate(row) if q != p
                ),
                exact,
            )
            self._sums = (off, diag)
        return self._sums
