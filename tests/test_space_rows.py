"""The five-sum update behind the streamed whole-space pass of `stats` and
`verify` (space_rows, the reference for oracle.space_moments), and the
neighborhood means of verify's wave claims (oracle.neighbor_means), against
the literal oracles.

space_rows visits the permutations in Heap's order and carries five sums
from point to point through decomposition._swap_sum_deltas. Its rows must
equal the literal columns of evaluate_points (tests/conftest.py) exactly in
rational mode and stay within the float tolerance of them in float mode.
neighbor_means adds each swap's update of the same five sums to those at
one point, on the integer twin, and forms each mean once: exactly the means
of a full evaluation of each neighbor in rational mode, and in float mode
the exact means of the float entries, correctly rounded.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import GeneralTensor, Permutation, QapInstance, variance_triple
from qaplandscape.core import FLOAT_TOLERANCE
from qaplandscape.decomposition import _raw_sums, _sums, _swap_sum_deltas
from qaplandscape.oracle import (
    heap_swaps,
    moments,
    neighbor_means,
    space_moments,
    space_points,
)
from conftest import (
    evaluate_points,
    exact_twin,
    full_row,
    general_tensor,
    neighborhood_means,
    random_perms,
    rounded,
    seeded_instance,
    space_rows,
    two_decimal_instance,
    two_decimal_tensor,
)


def literal_rows(problem):
    """{mapping: (c1, c2, c3, f)} from evaluate_points in lexicographic order."""
    points = list(space_points(problem.n))
    return dict(zip((x.mapping for x in points), zip(*evaluate_points(problem, points))))


def random_tensor(n, seed):
    rng = random.Random(seed)
    return GeneralTensor([
        [[[rng.randint(-5, 9) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ])


def decimal_instance(n, seed):
    """Two-decimal entries in [-9.99, 9.99]: a float-mode instance."""
    rng = random.Random(seed)

    def square():
        return [[rng.randint(-999, 999) / 100 for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


@pytest.mark.parametrize("n", range(3, 9))
def test_heap_order_visits_every_permutation_once(n):
    mapping = list(range(n))
    seen = {tuple(mapping)}
    swaps = 0
    for u, v in heap_swaps(n):
        assert 0 <= u < v < n
        mapping[u], mapping[v] = mapping[v], mapping[u]
        seen.add(tuple(mapping))
        swaps += 1
    assert swaps == math.factorial(n) - 1
    assert len(seen) == math.factorial(n)


# Entries mix integers and Fractions; the diagonals are nonzero and each
# matrix is asymmetric by construction, so every one of the five sums moves.
ENTRY = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def asymmetric_instances(draw):
    n = draw(st.integers(3, 6))

    def square():
        m = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
        for i in range(n):
            m[i][i] = draw(ENTRY.filter(bool))
        m[0][1] = m[1][0] + draw(ENTRY.filter(bool))
        return m

    return QapInstance(square(), square())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_five_sum_update_equals_the_tensor_sums_after_every_swap(data):
    inst = data.draw(asymmetric_instances())
    n = inst.n
    mapping = list(data.draw(st.permutations(range(n))))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    tensor = GeneralTensor.from_qap(inst)
    sums = _raw_sums(inst, mapping)
    for u, v in data.draw(st.lists(pair, min_size=1, max_size=12)):
        deltas = _swap_sum_deltas(inst, mapping, u, v)
        sums = tuple(s + d for s, d in zip(sums, deltas))
        mapping[u], mapping[v] = mapping[v], mapping[u]
        assert sums == _raw_sums(inst, mapping)
        x = Permutation(mapping)
        assert sums == _sums(tensor, x)
        assert sums[0] == inst.fitness(x)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("kind", ["instance", "tensor"])
def test_streamed_rows_equal_evaluate_points(n, kind):
    problem = seeded_instance(n, n, -5, 9) if kind == "instance" else random_tensor(n, n)
    rows = list(space_rows(problem))
    assert len(rows) == math.factorial(n)
    assert dict(rows) == literal_rows(problem)


# variance_triple is the streamed pass behind the cap: both against the
# literal columns, at the default cap.
def test_streamed_moments_equal_the_literal_columns_at_n8():
    inst = seeded_instance(8, 3, -5, 9)
    columns = evaluate_points(inst, space_points(8))
    want = tuple(moments(column)[1] for column in columns)
    variances = space_moments(inst).variances
    assert variances == variance_triple(inst) == want
    assert all(isinstance(v, Fraction) for v in variances)


def test_float_rows_stay_within_tolerance_at_n8():
    inst = decimal_instance(8, 5)
    literal = literal_rows(inst)
    worst = 0.0
    for mapping, row in space_rows(inst):
        want = literal[mapping]
        scale = max(1.0, abs(want[3]))
        for got, expected in zip(row, want):
            assert abs(got - expected) <= FLOAT_TOLERANCE * scale
            worst = max(worst, abs(got - expected) / scale)
    # A running sum, not a copy of the direct evaluation.
    assert worst > 0


def literal_means(problem, x):
    """The means of the rows of the swap neighbors of x, each evaluated in
    full."""
    return neighborhood_means(lambda y: full_row(problem, y), x)


# The neighborhood means of verify's wave claims: the sums at x plus each
# swap's update, against the means of a full evaluation of every neighbor.
@pytest.mark.parametrize("n", range(3, 9))
def test_neighbor_rows_equal_full_rows(n):
    inst = seeded_instance(n, n, -5, 9)
    for x in [Permutation.identity(n)] + random_perms(n, 3, n):
        means = neighbor_means(inst, x)
        assert means == literal_means(inst, x)
        assert all(type(v) is Fraction for v in means)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_neighbor_rows_equal_full_rows_on_fractions(data):
    inst = data.draw(asymmetric_instances())
    x = Permutation(data.draw(st.permutations(range(inst.n))))
    assert neighbor_means(inst, x) == literal_means(inst, x)


# Float means are the exact means of the float entries, rounded once, and so
# within the float tolerance of the means of the float rows.
@pytest.mark.parametrize("n", [4, 7, 12])
def test_float_neighbor_rows_stay_within_tolerance(n):
    inst = decimal_instance(n, n)
    for x in random_perms(n, 3, n):
        got = neighbor_means(inst, x)
        assert got == tuple(map(rounded, neighbor_means(exact_twin(inst), x)))
        want = literal_means(inst, x)
        scale = max(1.0, abs(want[3]))
        for mean, expected in zip(got, want):
            assert abs(mean - expected) <= FLOAT_TOLERANCE * scale


@st.composite
def problems(draw):
    """An instance with nonzero diagonals and an asymmetric pair, or a
    tensor not of product form, entries of both signs, n = 3..6; in
    rational or float mode."""
    decimal = draw(st.booleans())
    if draw(st.booleans()):
        inst = draw(asymmetric_instances())
        return inst.as_float() if decimal else inst
    n, seed = draw(st.integers(3, 6)), draw(st.integers(0, 999))
    return two_decimal_tensor(n, seed) if decimal else general_tensor(n, seed, (1, 2, 3))


# Rational means equal the means of the full rows; float means are those of
# the same entries taken as exact Fractions, rounded once.
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_neighbor_means_are_the_literal_means_rounded_once(data):
    problem = data.draw(problems())
    x = Permutation(data.draw(st.permutations(range(problem.n))))
    exact = exact_twin(problem)
    want = neighbor_means(exact, x)
    assert want == literal_means(exact, x)
    got = neighbor_means(problem, x)
    if problem.exact:
        assert got == want
    else:
        assert [v.hex() for v in got] == [rounded(q).hex() for q in want]


# Float decompose at a point and at each of its neighbors against the exact
# components of the same float entries, on entries that are no short binary
# fractions: each value within FLOAT_TOLERANCE of the largest magnitude
# compared.
@pytest.mark.parametrize("n", range(3, 13))
def test_float_components_stay_within_tolerance_of_the_exact_ones(n):
    inst = two_decimal_instance(n, n)
    twin = exact_twin(inst)
    for x in random_perms(n, 3, n):
        for y in [x, *x.neighbors()]:
            want = full_row(twin, y)
            scale = max(1, *map(abs, want))
            for got, exact in zip(full_row(inst, y), want):
                assert abs(Fraction(got) - exact) <= FLOAT_TOLERANCE * scale


def test_tensor_neighbor_rows_are_full_rows():
    tensor = random_tensor(5, 2)
    x = Permutation([2, 0, 4, 1, 3])
    assert neighbor_means(tensor, x) == literal_means(tensor, x)
