"""O(n) swap deltas against full recomputation.

For every pair u < v, swap_delta(x.mapping, u, v) must equal
fitness(x.swap(u, v)) - fitness(x) exactly in rational mode, on product-form
instances and on general tensors, and agree to FLOAT_TOLERANCE of the
objective's magnitude in float mode.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import GeneralTensor, Permutation, QapInstance
from qaplandscape.core import FLOAT_TOLERANCE
from conftest import seeded_instance
from strategies import DECIMAL_ENTRY, ENTRY, qap_instances, sparse_tensors

FRACTION_ENTRY = st.one_of(
    ENTRY, st.fractions(min_value=-5, max_value=9, max_denominator=7)
)


def pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def assert_deltas_exact(problem, x):
    f = problem.fitness(x)
    for u, v in pairs(problem.n):
        assert problem.swap_delta(x.mapping, u, v) == problem.fitness(x.swap(u, v)) - f


def random_start(n, data):
    return Permutation(data.draw(st.permutations(range(n))))


@settings(max_examples=40, deadline=None)
@given(qap_instances(max_n=8, entries=FRACTION_ENTRY), st.data())
def test_qap_delta_equals_recompute(inst, data):
    assert_deltas_exact(inst, random_start(inst.n, data))


@settings(max_examples=25, deadline=None)
@given(sparse_tensors(), st.data())
def test_tensor_delta_equals_recompute(tensor, data):
    assert_deltas_exact(tensor, random_start(tensor.n, data))


@settings(max_examples=25, deadline=None)
@given(qap_instances(max_n=8, entries=DECIMAL_ENTRY), st.data())
def test_float_delta_within_tolerance(inst, data):
    x = random_start(inst.n, data)
    f = inst.fitness(x)
    tol = FLOAT_TOLERANCE * max(1.0, abs(f))
    for u, v in pairs(inst.n):
        got = inst.swap_delta(x.mapping, u, v)
        assert isinstance(got, float)
        assert abs(got - (inst.fitness(x.swap(u, v)) - f)) <= tol


@pytest.mark.parametrize("n", range(3, 9))
def test_asymmetric_with_diagonal_on_both_types(n):
    rng = random.Random(500 + n)
    r = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
         for _ in range(n)]
    w = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        r[i][i] = Fraction(2 * i + 1, 3)
        w[i][i] = i + 1
    r[0][1], r[1][0] = 1, -2
    inst = QapInstance(r, w)
    x = Permutation.random(n, rng)
    assert_deltas_exact(inst, x)
    assert_deltas_exact(GeneralTensor.from_qap(inst), x)


def test_product_form_tensor_has_the_same_deltas():
    inst = seeded_instance(6, 4)
    tensor = GeneralTensor.from_qap(inst)
    x = Permutation.random(6, random.Random(1))
    for u, v in pairs(6):
        assert tensor.swap_delta(x.mapping, u, v) == inst.swap_delta(x.mapping, u, v)


def test_reads_a_list_mapping_without_changing_it():
    inst = seeded_instance(5, 3)
    x = Permutation([2, 0, 4, 1, 3])
    mapping = list(x.mapping)
    assert inst.swap_delta(mapping, 1, 3) == inst.swap_delta(x.mapping, 1, 3)
    assert mapping == list(x.mapping)


@pytest.mark.parametrize("problem", [
    seeded_instance(4, 1), GeneralTensor.from_qap(seeded_instance(4, 1)),
])
def test_argument_validation(problem):
    with pytest.raises(ValueError, match="mapping size"):
        problem.swap_delta([0, 1, 2], 0, 1)
    with pytest.raises(ValueError, match="lie in"):
        problem.swap_delta([0, 1, 2, 3], 0, 4)
    with pytest.raises(ValueError, match="lie in"):
        problem.swap_delta([0, 1, 2, 3], -1, 2)
    with pytest.raises(ValueError, match="differ"):
        problem.swap_delta([0, 1, 2, 3], 2, 2)
