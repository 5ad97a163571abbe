"""The streamed whole-space pass behind `stats` and `verify`
(oracle.space_rows) against the literal, lexicographic oracles.

space_rows visits the permutations in Heap's order and carries seven sums
from point to point through decomposition._swap_sum_deltas. Its rows must
equal evaluate_points exactly in rational mode and stay within the float
tolerance of it in float mode.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import GeneralTensor, Permutation, QapInstance, variance_triple
from qaplandscape.core import FLOAT_TOLERANCE
from qaplandscape.decomposition import (
    _case_totals,
    _masses_from_sums,
    _raw_sums,
    _swap_sum_deltas,
)
from qaplandscape.oracle import (
    evaluate_points,
    heap_swaps,
    lexicographic_point,
    moments,
    space_columns,
    space_points,
    space_rows,
)
from conftest import seeded_instance


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
# matrix is asymmetric by construction, so every one of the seven sums moves.
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
def test_seven_sum_update_equals_the_case_totals_after_every_swap(data):
    inst = data.draw(asymmetric_instances())
    n = inst.n
    mapping = list(data.draw(st.permutations(range(n))))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    sums = _raw_sums(inst, mapping)
    for u, v in data.draw(st.lists(pair, min_size=1, max_size=12)):
        deltas = _swap_sum_deltas(inst, mapping, u, v)
        sums = tuple(s + d for s, d in zip(sums, deltas))
        mapping[u], mapping[v] = mapping[v], mapping[u]
        assert sums == _raw_sums(inst, mapping)
        x = Permutation(mapping)
        assert _masses_from_sums(inst, sums) == _case_totals(inst, x)
        assert sums[0] == inst.fitness(x)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("kind", ["instance", "tensor"])
def test_streamed_rows_equal_evaluate_points(n, kind):
    problem = seeded_instance(n, n, -5, 9) if kind == "instance" else random_tensor(n, n)
    rows = list(space_rows(problem))
    assert len(rows) == math.factorial(n)
    assert dict(rows) == literal_rows(problem)


def test_streamed_moments_equal_variance_triple_at_n8():
    inst = seeded_instance(8, 3, -5, 9)
    variances = tuple(moments(col)[1] for col in space_columns(inst))
    assert variances == variance_triple(inst)
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


@pytest.mark.parametrize("n", range(3, 7))
def test_decoded_rank_is_the_lexicographic_point(n):
    for rank, x in enumerate(space_points(n)):
        assert lexicographic_point(n, rank) == x


def test_rank_out_of_range_is_refused():
    for rank in (-1, 24):
        with pytest.raises(ValueError, match="rank"):
            lexicographic_point(4, rank)
