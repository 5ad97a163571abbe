"""Every statistic of the whole instance runs on its integer twin
(core._integer_scaled) and is formed once (core._ratio).

In float mode the component means, the variances of both problem types, the
weights and xi must each be the correctly rounded float of the exact value
of the same entries, bit for bit; the Fraction twin of the entries gives
that exact value. A tensor coefficient that overflowed to an infinity has
no exact value and is refused by name, while the per-point evaluators keep
working on it.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from qaplandscape import GeneralTensor, Permutation, parse_qaplib, variance_triple
from qaplandscape.cli import run_cli
from qaplandscape.core import _integer_scaled, neighborhood_size
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    average_triple,
    component_average,
    component_variances,
    decompose,
)
from qaplandscape.spectral import autocorr_coefficient, component_weights
from conftest import exact_twin, rounded, two_decimal_instance

MIXED_INFINITIES = ("3\n0 0 0\n0 -1e154 0\n0 0 0\n"
                    "0 -1e154 0\n1e154 1e154 0\n1e154 2e154 -1e154\n")


def exact_tensor(tensor):
    """The same coefficients as Fractions: the tensor in rational mode."""
    return GeneralTensor([[[[Fraction(v) for v in row] for row in plane]
                           for plane in block] for block in tensor.psi])


def hexes(values):
    return [v.hex() for v in values]


def check_means(problem, twin):
    want = [rounded(v) for v in average_triple(twin)]
    got = average_triple(problem)
    assert all(type(v) is float for v in got)
    assert hexes(got) == hexes(want)
    assert hexes(component_average(problem, m) for m in (1, 2, 3)) == hexes(want[:3])


@pytest.mark.parametrize("n", range(3, 9))
def test_float_means_are_the_rounded_exact_means(n):
    for seed in range(10):
        inst = two_decimal_instance(n, seed)
        check_means(inst, exact_twin(inst))


@pytest.mark.parametrize("n", range(3, 7))
def test_float_tensor_means_and_variances_are_rounded_exact(n):
    tensor = GeneralTensor.from_qap(two_decimal_instance(n, 50 + n))
    twin = exact_tensor(tensor)
    check_means(tensor, twin)
    got = component_variances(tensor)
    assert all(type(v) is float for v in got)
    assert hexes(got) == hexes(map(rounded, component_variances(twin)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
def test_float_xi_is_the_rounded_exact_coefficient(n):
    d = neighborhood_size(n)
    ks = [KIND_CONSTANTS[m](n).k for m in (1, 2, 3)]
    for seed in range(10):
        inst = two_decimal_instance(n, seed)
        weights = component_weights(exact_twin(inst))
        want = 1 / sum(w * Fraction(k, d) for w, k in zip(weights, ks))
        cb = autocorr_coefficient(inst)
        assert cb.xi.hex() == rounded(want).hex()
        assert (cb.lo, cb.hi) == ((n - 1) / 4, (n - 1) / 2)


def test_float_tensor_fitness_is_the_rounded_exact_sum():
    rng = random.Random(6)
    for seed in range(40):
        tensor = GeneralTensor.from_qap(two_decimal_instance(6, seed))
        for _ in range(10):
            x = Permutation.random(6, rng)
            want = sum(Fraction(tensor.psi[i][j][x(i)][x(j)])
                       for i in range(6) for j in range(6))
            assert tensor.fitness(x).hex() == rounded(want).hex()


def test_the_twin_is_built_once():
    inst = two_decimal_instance(5, 1)
    twin, d = _integer_scaled(inst)
    assert d > 1 and all(type(v) is int for row in twin.r + twin.w for v in row)
    assert _integer_scaled(inst)[0] is twin
    # An integer problem is its own twin, and keeps no reference to itself.
    assert _integer_scaled(twin) == (twin, 1)
    assert twin._twin == (None, 1)


def test_stats_prints_the_vanishing_c1_mean_as_zero(tmp_path, capsys):
    path = tmp_path / "mixed_infinities.dat"
    path.write_text(MIXED_INFINITIES)
    assert run_cli(["stats", "--instance", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    means = json.loads(captured.out)["results"]["closed_form_means"]
    assert means["c1"] == 0.0 and math.copysign(1, means["c1"]) == 1
    assert '"c1": 0.0,' in captured.out


def test_infinite_tensor_coefficient_is_refused_by_name():
    tensor = GeneralTensor.from_qap(parse_qaplib(MIXED_INFINITIES))
    assert tensor.psi[1][1][2][1] == -math.inf
    for statistic in (_integer_scaled, average_triple, component_variances,
                      variance_triple):
        with pytest.raises(ValueError, match=r"psi\[1\]\[1\]\[2\]\[1\] is -inf"):
            statistic(tensor)
    # The per-point evaluator keeps working: verify's fast_vs_reference
    # claim reads it.
    assert len(decompose(tensor, Permutation.identity(3))) == 4
