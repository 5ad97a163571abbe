"""The two O(n^2) kernels, QapInstance.fitness and decomposition._raw_sums,
against literal double loops over the entries.

_raw_sums gathers w at the mapping once and dots the result with the
instance's cached flat rows; fitness reduces the same n^2 products. In
rational mode each sum must equal the literal loop exactly, on integer,
Fraction and 10**200 entries. In float mode each must equal math.fsum of
the literal products bit for bit. The checks must also catch three wrong
kernels: r in place of its transpose, a gather by the inverse mapping, and
a dropped diagonal term.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import Permutation, QapInstance, decomposition
from qaplandscape.decomposition import _raw_sums
from conftest import fraction_instance, huge_instance, seeded_instance
from strategies import DECIMAL_ENTRY, qap_instances

HUGE = 10**200

ENTRIES = {
    "int": st.integers(-9, 9),
    # One draw per entry, with the denominator read off it, so that a failing
    # example shrinks as quickly as an integer one.
    "fraction": st.integers(-999, 999).map(lambda v: Fraction(v, 1 + v % 12)),
    "huge": st.integers(-9, 9).map(lambda v: v * HUGE + v),
}


def literal_terms(inst, mapping):
    """The products behind the five sums of _raw_sums and behind fitness,
    from literal loops over the entries: (same, swapped, diag, P, Q), each a
    list of terms. P pairs the marginals of r and w row with row and column
    with column, Q row with column and column with row. The marginals are
    the instance's cached ones; literal_marginals checks those on their
    own."""
    n, r, w = inst.n, inst.r, inst.w
    x = mapping
    rng = range(n)
    ro_r, co_r, ro_w, co_w = (
        inst._row_off_r, inst._col_off_r, inst._row_off_w, inst._col_off_w
    )
    return (
        [r[i][j] * w[x[i]][x[j]] for i in rng for j in rng],
        [r[i][j] * w[x[j]][x[i]] for i in rng for j in rng],
        [r[i][i] * w[x[i]][x[i]] for i in rng],
        [ro_r[i] * ro_w[x[i]] for i in rng] + [co_r[i] * co_w[x[i]] for i in rng],
        [ro_r[i] * co_w[x[i]] for i in rng] + [co_r[i] * ro_w[x[i]] for i in rng],
    )


def literal_marginals(m):
    """Off-diagonal row and column sums of a square matrix, by literal loops."""
    n = len(m)
    rows = tuple(sum(m[i][j] for j in range(n) if j != i) for i in range(n))
    cols = tuple(sum(m[i][j] for i in range(n) if i != j) for j in range(n))
    return rows, cols


def check_kernels(inst, mapping):
    """Assert that fitness and _raw_sums equal the literal loops: exactly in
    rational mode, bit for bit against math.fsum in float mode."""
    terms = literal_terms(inst, mapping)
    reduce = sum if inst.exact else math.fsum
    want = tuple(reduce(t) for t in terms)
    got = _raw_sums(inst, mapping)
    assert len(got) == len(want)
    for name, g, v in zip(("same", "swapped", "diag", "P", "Q"), got, want):
        assert g == v and type(g) is type(v), (name, g, v)
    f = inst.fitness(Permutation(mapping))
    assert f == want[0] and type(f) is type(want[0])
    if inst.exact:
        assert (inst._row_off_r, inst._col_off_r) == literal_marginals(inst.r)
        assert (inst._row_off_w, inst._col_off_w) == literal_marginals(inst.w)


def random_mapping(n, rng):
    return Permutation.random(n, rng).mapping


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_kernels_equal_literal_loops(kind, data):
    inst = data.draw(qap_instances(min_n=3, max_n=8, entries=ENTRIES[kind]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    check_kernels(inst, random_mapping(inst.n, random.Random(seed)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_kernels_equal_fsum_of_literal_products(data):
    inst = data.draw(qap_instances(min_n=3, max_n=8, entries=DECIMAL_ENTRY))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert not inst.exact
    check_kernels(inst, random_mapping(inst.n, random.Random(seed)))


def uniform_instance(n, seed):
    """Float entries drawn uniformly from [-1000, 1000]."""
    rng = random.Random(seed)

    def square():
        return [[rng.uniform(-1e3, 1e3) for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


@pytest.mark.parametrize("make", [
    lambda: seeded_instance(24, 5, -9, 9),
    lambda: fraction_instance(24, 5),
    lambda: huge_instance(24, 5),
    lambda: seeded_instance(24, 5, -9, 9).as_float(),
    lambda: uniform_instance(24, 5),
], ids=["int", "fraction", "huge", "float-integral", "float"])
def test_kernels_at_n24(make):
    inst = make()
    rng = random.Random(24)
    for _ in range(5):
        check_kernels(inst, random_mapping(24, rng))


# -- the checks catch wrong kernels ----------------------------------------

def mutation_target():
    """A float instance with asymmetric r and w and a nonzero diagonal, at a
    mapping that is not its own inverse: each wrong kernel below changes at
    least one sum there."""
    inst = seeded_instance(6, 7, 1, 9).as_float()
    mapping = (1, 2, 3, 4, 5, 0)
    assert inst.r != tuple(zip(*inst.r)) and inst.w != tuple(zip(*inst.w))
    return inst, mapping


def inverse_itemgetter(*mapping):
    inverse = [0] * len(mapping)
    for i, v in enumerate(mapping):
        inverse[v] = i
    return operator.itemgetter(*inverse)


def r_for_transpose(monkeypatch, inst):
    monkeypatch.setattr(inst, "_rt_flat", inst._r_flat)


def inverse_gather(monkeypatch, inst):
    monkeypatch.setattr(decomposition, "itemgetter", inverse_itemgetter)


def dropped_diagonal_term(monkeypatch, inst):
    monkeypatch.setattr(inst, "_r_diag", (0.0,) + inst._r_diag[1:])


def test_unmutated_kernels_pass_the_mutation_target():
    check_kernels(*mutation_target())


@pytest.mark.parametrize("mutate", [r_for_transpose, inverse_gather, dropped_diagonal_term])
@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_wrong_kernel_is_caught(monkeypatch, mutate, exact):
    inst, mapping = mutation_target()
    if exact:
        inst = seeded_instance(6, 7, 1, 9)
    mutate(monkeypatch, inst)
    with pytest.raises(AssertionError):
        check_kernels(inst, mapping)
