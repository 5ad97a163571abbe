"""Closed-form component variances against full enumeration.

decomposition.component_variances must equal oracle.variance_triple exactly
in rational mode, for product-form instances and for general tensors, and
agree to 1e-9 of Var(f) in float mode.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from qaplandscape import (
    ComponentTriple,
    GeneralTensor,
    QapInstance,
    check_elementary,
    component_variances,
    variance_triple,
)
from qaplandscape.spectral import component_weights
from qaplandscape import oracle
from conftest import seeded_instance
from strategies import DECIMAL_ENTRY, qap_instances, sparse_tensors


@settings(max_examples=40, deadline=None)
@given(qap_instances())
def test_qap_closed_form_equals_enumeration(inst):
    assert component_variances(inst) == variance_triple(inst)


@settings(max_examples=25, deadline=None)
@given(sparse_tensors())
def test_tensor_closed_form_equals_enumeration(tensor):
    assert component_variances(tensor) == variance_triple(tensor)


@settings(max_examples=25, deadline=None)
@given(qap_instances(max_n=6, entries=DECIMAL_ENTRY))
def test_float_closed_form_within_tolerance(inst):
    got = component_variances(inst)
    want = variance_triple(inst)
    tol = 1e-9 * max(1.0, abs(want.total))
    assert all(isinstance(v, float) for v in got)
    assert all(abs(a - b) <= tol for a, b in zip(got, want))


@pytest.mark.parametrize("n", range(3, 9))
def test_exact_for_every_n_on_both_types(n):
    """n = 3..8; the tensor built from the instance has the same components,
    so its closed form must match the instance's enumeration too."""
    rng = random.Random(300 + n)
    r = [[rng.randint(-5, 9) for _ in range(n)] for _ in range(n)]
    w = [[rng.randint(-5, 9) for _ in range(n)] for _ in range(n)]
    inst = QapInstance(r, w)
    want = variance_triple(inst)
    assert component_variances(inst) == want
    assert component_variances(GeneralTensor.from_qap(inst)) == want
    assert all(isinstance(v, Fraction) for v in want)


def test_n3_second_component_vanishes():
    # Asymmetric around the 3-cycle, so the one-dimensional (1,1,1) part of
    # both matrices, and hence Var(c1), is nonzero.
    inst = QapInstance([[0, 1, 2], [0, 0, 3], [0, 0, 0]],
                       [[1, 5, 0], [0, 2, 0], [0, 7, 3]])
    got = component_variances(inst)
    assert got.c2 == 0 and got.c1 > 0 and got.c3 > 0
    assert got == variance_triple(inst)
    tensor = GeneralTensor.from_qap(inst)
    assert component_variances(tensor) == got
    assert component_variances(inst.as_float()).c2 == 0.0


def test_components_add_to_total():
    got = component_variances(seeded_instance(30, 1))
    assert got.total == got.c1 + got.c2 + got.c3
    assert all(isinstance(v, Fraction) and v > 0 for v in got)


def test_named_tuple_is_shared_with_the_oracle():
    assert oracle.ComponentTriple is ComponentTriple


def test_rejects_other_types():
    with pytest.raises(TypeError):
        component_variances([[1, 2], [3, 4]])


# Known special cases as regression oracles, each at n = 5, 7 and 12.


def _random_matrix(n, rng, symmetric=False):
    r = [[rng.randint(1, 9) if i != j else 0 for j in range(n)] for i in range(n)]
    if symmetric:
        r = [[r[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return r


def _cycle(n, directed=False):
    steps = (1,) if directed else (1, n - 1)
    return [[int((q - p) % n in steps) for q in range(n)] for p in range(n)]


@pytest.mark.parametrize("n", [5, 7, 12])
def test_symmetric_tsp_is_the_second_component(n):
    """A symmetric TSP written as a QAP is elementary under swaps with
    k = 2(n-1) (Grover 1992; Stadler & Schnabl 1992): all of its variance
    lies in c2."""
    inst = QapInstance(_random_matrix(n, random.Random(n), symmetric=True), _cycle(n))
    assert component_weights(inst) == (0, 1, 0)


@pytest.mark.parametrize("n", [5, 6])
def test_symmetric_tsp_fits_its_wave_constant(n):
    inst = QapInstance(_random_matrix(n, random.Random(n), symmetric=True), _cycle(n))
    report = check_elementary(inst.fitness, n)
    assert report.is_elementary and report.fitted_k == 2 * (n - 1)


@pytest.mark.parametrize("n", [5, 7, 12])
def test_directed_cycle_has_no_first_order_part(n):
    # Every row and column of the directed cycle sums to 1.
    inst = QapInstance(_random_matrix(n, random.Random(n)), _cycle(n, directed=True))
    assert component_variances(inst).c3 == 0


@pytest.mark.parametrize("n", [5, 7, 12])
def test_linear_ordering_has_no_second_component(n):
    # w + w^T is constant off the diagonal.
    w = [[int(p < q) for q in range(n)] for p in range(n)]
    inst = QapInstance(_random_matrix(n, random.Random(n)), w)
    assert component_variances(inst).c2 == 0
