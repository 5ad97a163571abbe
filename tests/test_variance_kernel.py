"""The instance variance kernel, decomposition._instance_variances, and the
instance set-up it reads.

The kernel scales the entries to integers and forms the three variances
from two dot products per matrix and O(n) algebra on the marginals. In
rational mode it must equal the O(n^4) projections of the GeneralTensor
built from the same instance exactly, and full enumeration at small n. In
float mode each variance, Var(f) included, must be the correctly rounded
float of the exact variance of the same entries, and no variance of an
instance with finite entries may be NaN. The checks must catch three wrong
kernels: B with its sign flipped, a dropped 2 (sum v)^2 term, and the
off-diagonal 1 of the first-order mixing matrix M set to 0.
"""

import inspect
import math
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import GeneralTensor, QapInstance, decomposition
from qaplandscape.core import _entries_are_exact, _integer_values
from qaplandscape.decomposition import component_variances
from qaplandscape.oracle import variance_triple
from qaplandscape.qaplib import generate_instance, parse_qaplib
from conftest import fraction_instance, huge_instance, seeded_instance
from strategies import DECIMAL_ENTRY, qap_instances
from test_golden import decimal_instance_text

ENTRIES = {
    "int": st.integers(-9, 9),
    "fraction": st.integers(-999, 999).map(lambda v: Fraction(v, 1 + v % 12)),
}

# Finite floats of every magnitude, subnormals and the largest included.
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def check_against_tensor(inst):
    """The kernel equals the tensor projections exactly (rational mode)."""
    got = component_variances(inst)
    want = component_variances(GeneralTensor.from_qap(inst))
    assert got == want
    assert all(type(v) is Fraction for v in got)


def exact_twin(inst):
    """The same entries as Fractions: the instance in rational mode."""
    return QapInstance(
        [[Fraction(v) for v in row] for row in inst.r],
        [[Fraction(v) for v in row] for row in inst.w],
    )


def rounded(q):
    """The float nearest q, or inf beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


def check_correctly_rounded(inst):
    """Float-mode variances are the correctly rounded exact ones, bit for
    bit, Var(f) included."""
    got = component_variances(inst)
    want = tuple(map(rounded, component_variances(exact_twin(inst))))
    assert all(type(v) is float for v in got)
    assert got == want


# -- rational mode: the tensor projections and full enumeration ---------------

@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_equals_tensor_projections(kind, data):
    check_against_tensor(data.draw(qap_instances(max_n=9, entries=ENTRIES[kind])))


@pytest.mark.parametrize("n", range(3, 8))
def test_kernel_equals_enumeration_on_fractions(n):
    inst = fraction_instance(n, 40 + n)
    assert component_variances(inst) == variance_triple(inst, cap=n)


@pytest.mark.parametrize("make", [
    lambda: seeded_instance(24, 3, -50, 50),
    lambda: fraction_instance(20, 3),
    lambda: huge_instance(12, 3),
], ids=["int-n24", "fraction-n20", "huge-n12"])
def test_kernel_equals_tensor_projections_at_larger_n(make):
    check_against_tensor(make())


# -- float mode: correctly rounded, never NaN -------------------------------

def test_decimal_golden_instance_is_correctly_rounded():
    inst = parse_qaplib(decimal_instance_text())
    check_correctly_rounded(inst)
    assert component_variances(inst).c3 == 467.2153675357111


@settings(max_examples=40, deadline=None)
@given(qap_instances(max_n=9, entries=DECIMAL_ENTRY))
def test_float_variances_are_correctly_rounded(inst):
    check_correctly_rounded(inst)


@settings(max_examples=40, deadline=None)
@given(qap_instances(max_n=5, entries=ANY_FINITE))
def test_no_variance_of_finite_entries_is_nan(inst):
    got = component_variances(inst)
    assert not any(map(math.isnan, got))
    assert all(v >= 0 for v in got)
    check_correctly_rounded(inst)


def test_float_entries_beyond_one_scale():
    """Entries whose common power-of-two scale overflows a float (a
    subnormal beside 1, and 1e300 beside 1e-300) take the as_integer_ratio
    path and stay exact."""
    tiny = QapInstance([[5e-324, 1.0, 2.0], [0.5, 0.0, 3.0], [1.0, 2.0, 0.25]],
                       [[1.0, 0.0, 2.0], [3.0, 1.5, 0.0], [0.0, 1.0, 1.0]])
    check_correctly_rounded(tiny)
    wide = QapInstance([[1e300, 1e-300, 2.0], [0.5, 0.0, 3.0], [1.0, 2.0, 0.25]],
                       [[1.0, 0.0, 2.0], [3.0, 1.5, 0.0], [0.0, 1.0, 1.0]])
    check_correctly_rounded(wide)
    assert math.isinf(component_variances(wide).total)


def test_overflowing_instances_read_inf_not_nan():
    """The two instance files of CI's overflow step: every entry is finite,
    so every variance is a number, and one beyond the float range reads
    inf. In mixed_infinities r is zero off the diagonal, so c1 and c2
    vanish."""
    mixed = parse_qaplib("3\n0 0 0\n0 -1e154 0\n0 0 0\n"
                         "0 -1e154 0\n1e154 1e154 0\n1e154 2e154 -1e154\n")
    assert component_variances(mixed) == (0.0, 0.0, math.inf, math.inf)
    square = parse_qaplib(
        "4\n2.9e80 1.8e80 4.2e80 2.2e80\n1.5e80 4.2e80 8.3e80 7.4e80\n"
        "7.1e80 2.8e80 5.3e80 3.2e80\n2.4e80 1.8e80 2.7e80 8.4e80\n"
        "7.6e80 7.5e80 7.4e80 2.5e80\n3.5e80 6.0e80 6.9e80 7.8e80\n"
        "8.0e80 1.7e80 5.8e80 6.4e80\n5.0e80 2.4e80 4.8e80 1.7e80\n"
    )
    assert component_variances(square) == (math.inf,) * 4


# -- the checks catch wrong kernels ---------------------------------------

def mutate(monkeypatch, function, old, new):
    """Replace function in decomposition by a copy of its source with the
    one occurrence of old replaced by new."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(decomposition))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(decomposition, function.__name__, namespace[function.__name__])


MUTATIONS = {
    "sign-of-B": (decomposition._pair_terms, "b = 2 * sum(", "b = -2 * sum("),
    "dropped-2(sum v)^2": (decomposition._pair_terms, " + 2 * sv * sv)", ")"),
    "M-off-diagonal-0": (decomposition._instance_variances,
                         "m = ((n - 1, 1, 0), (1, n - 1, 0),",
                         "m = ((n - 1, 0, 0), (0, n - 1, 0),"),
}


def mutation_target():
    inst = seeded_instance(6, 7, 1, 9)
    assert inst.r != tuple(zip(*inst.r)) and inst.w != tuple(zip(*inst.w))
    return inst


def test_unmutated_kernel_passes_the_mutation_target():
    inst = mutation_target()
    check_against_tensor(inst)
    assert component_variances(inst) == variance_triple(inst)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_wrong_kernel_is_caught(monkeypatch, name):
    mutate(monkeypatch, *MUTATIONS[name])
    inst = mutation_target()
    with pytest.raises(AssertionError):
        check_against_tensor(inst)
    got = component_variances(inst.as_float())
    want = component_variances(GeneralTensor.from_qap(inst.as_float()))
    assert any(abs(a - b) > 1e-9 * want.total for a, b in zip(got, want))


# -- the integer view ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(ANY_FINITE, min_size=1, max_size=12))
def test_integer_values_of_floats_are_exact(values):
    ints, d = _integer_values(values)
    assert d & (d - 1) == 0  # a power of two
    assert [Fraction(v) * d for v in values] == ints
    assert all(type(v) is int for v in ints)


def test_integer_values_of_ints_and_fractions():
    ints = (3, -4, 0)
    assert _integer_values(ints) == (ints, 1)
    assert _integer_values(ints)[0] is ints
    assert _integer_values([Fraction(1, 6), 2, Fraction(-3, 4)]) == ([2, 24, -9], 12)


# -- instance set-up ----------------------------------------------------------

@pytest.mark.parametrize("args", [
    (3, 0, 0, 9), (5, 1, 0, 9), (24, 1, 0, 99), (7, 5, -50, -3),
    (6, 2, -9, 9), (10, 11, -10**30, 10**30), (4, 9, 4, 4),
])
def test_generate_instance_draws_the_randint_stream(args):
    n, seed, lo, hi = args
    rng = random.Random(seed)
    r = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    w = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    assert generate_instance(*args) == QapInstance(r, w)


class MyInt(int):
    pass


class MyFloat(float):
    pass


@pytest.mark.parametrize("rows,exact", [
    ([[1, 2], [3, 4]], True),
    ([[1, Fraction(1, 2)], [3, 4]], True),
    ([[MyInt(1), 2], [3, 4]], True),
    ([[1.5, 2.0], [3.0, 4.0]], False),
    ([[1, 2.5], [3, 4]], False),
    ([[Fraction(1, 3), 2.5], [3, 4]], False),
    ([[MyFloat(1.5), 2], [3, 4]], False),
])
def test_entries_are_exact_reads_the_mode(rows, exact):
    assert _entries_are_exact(rows) is exact


@pytest.mark.parametrize("bad,message", [
    (True, "must be numbers, got True"),
    ("1", "must be numbers, got '1'"),
    (None, "must be numbers, got None"),
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf"),
])
@pytest.mark.parametrize("other", [1, 1.5], ids=["int", "float"])
def test_entries_are_exact_refuses(bad, message, other):
    with pytest.raises(ValueError, match=message):
        _entries_are_exact([[other, other], [other, bad]])
    with pytest.raises(ValueError, match=message):
        _entries_are_exact(iter([[bad, other], [other, other]]))


def test_mixed_int_and_float_entries_run_in_float_mode():
    inst = QapInstance([[1, 2.5, 3], [4, 5, 6], [7, 8, 9]], [[1, 2, 3]] * 3)
    assert not inst.exact
    assert all(type(v) is float for row in inst.r + inst.w for v in row)
