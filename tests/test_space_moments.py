"""The streamed whole-space pass behind `stats` and `verify`
(oracle.space_moments) against the literal oracles.

The pass keeps no values: the entries are scaled to integers, each
component is an integer numerator over one denominator, formed from five
carried sums by the fixed rows of decomposition._numerator_rows, and only
the sums and sums of squares of the numerators are carried. Its moments,
and variance_triple, which reads them, must equal those of the literal
columns of evaluate_points (tests/conftest.py) exactly, on integer and
Fraction entries, on a tensor that is not of product form, and on entries
far beyond any machine integer. Float mode runs the same pass on the exact
values of the float entries: every mean and variance must be the correctly
rounded float of the exact one, bit for bit.

The wave claims of `verify` read no table of the pass: at every point of a
space taken whole, for n <= 6, they take the neighborhood means from
oracle.neighbor_means, which must equal the means of the literal rows and
of the streamed ones at every point.
"""

import json
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import Permutation, variance_triple
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    OmegaParams,
    _numerator_rows,
    _sums,
)
from qaplandscape.oracle import (
    moments,
    neighbor_means,
    space_moments,
    space_points,
)
from conftest import (
    evaluate_points,
    exact_twin,
    fraction_instance,
    general_tensor,
    huge_instance,
    neighborhood_means,
    perturb_kind,
    rounded,
    seeded_instance,
    space_rows,
    two_decimal_instance,
)
from five_case import tensor_case_totals, weighted_masses


PROBLEMS = {
    "integer": lambda n: seeded_instance(n, n, -5, 9),
    "fraction": lambda n: fraction_instance(n, n),
    "huge": lambda n: huge_instance(n, n),
    "tensor": lambda n: general_tensor(n, n),
    "fraction-tensor": lambda n: general_tensor(n, n, (1, 2, 3)),
}

# A tensor is evaluated in full at each point, in O(n^4), and the literal
# side sums its Fraction entries one by one: the Fraction tensor stops at
# n = 5, where it takes a second.
CASES = [
    (kind, n) for kind in PROBLEMS for n in range(3, 8)
    if kind != "fraction-tensor" or n <= 5
]


# variance_triple runs the pass a second time; it is compared with the
# literal columns where that is cheap.
@pytest.mark.parametrize("kind, n", CASES)
def test_streamed_moments_equal_the_literal_columns(kind, n):
    problem = PROBLEMS[kind](n)
    space = space_moments(problem)
    columns = evaluate_points(problem, space_points(n))
    literal = tuple(zip(*map(moments, columns)))
    assert (space.means, space.variances) == literal
    if n <= 6 or kind == "integer":
        assert variance_triple(problem) == literal[1]
    assert all(type(v) is Fraction for v in (*space.means, *space.variances))
    assert space.count == len(columns[3])
    assert space.residual == 0


# The streamed rows of tests/conftest.py, in the problem's own arithmetic,
# carried from point to point in Heap's order.
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_table_rows_equal_space_rows(kind):
    problem = PROBLEMS[kind](5)
    rows = dict(space_rows(problem))
    for mapping in rows:
        x = Permutation(mapping)
        want = neighborhood_means(lambda y: rows[y.mapping], x)
        assert neighbor_means(problem, x) == want


def literal_table(problem):
    """{mapping: (c1, c2, c3, f)} from evaluate_points."""
    points = list(space_points(problem.n))
    return dict(zip((x.mapping for x in points), zip(*evaluate_points(problem, points))))


# The neighborhood means of every point, as verify's wave claims take them
# for n <= 6. A tensor point is evaluated in full, in O(n^4), on both
# sides: the tensor stops at n = 5.
@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in ("natural", "integer", "fraction", "tensor")
    for n in range(3, 8) if kind != "tensor" or n <= 5
])
def test_table_equals_the_literal_rows(kind, n):
    problem = seeded_instance(n, n, 0, 9) if kind == "natural" else PROBLEMS[kind](n)
    table = literal_table(problem)
    for x in space_points(n):
        means = neighbor_means(problem, x)
        assert means == neighborhood_means(lambda y: table[y.mapping], x)
        assert all(type(v) is Fraction for v in means)


# The rows against the case-value weighting of tests/five_case.py, on the
# masses of the tensor classifier at a point of a tensor not of product
# form, whose zeta mass the rows never read: they take T instead.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 999), data=st.data())
def test_numerator_rows_equal_the_case_mass_rule(n, seed, data):
    tensor = general_tensor(n, seed)
    x = Permutation(data.draw(st.permutations(range(n))))
    lcm, rows = _numerator_rows(n)
    values = (*_sums(tensor, x), tensor.coefficient_sums()[0])
    masses = tensor_case_totals(tensor, x)
    for m, row in zip((1, 2, 3), rows):
        scale = lcm // KIND_CONSTANTS[m](n).den
        assert sum(map(mul, row, values)) == scale * weighted_masses(m, n, masses)


# Float mode runs the integer pass on the exact values of the float entries
# and rounds each result once: bit for bit the correctly rounded moments of
# the exact twin, from the literal columns.
@pytest.mark.parametrize("n", range(3, 8))
def test_float_moments_are_the_rounded_exact_moments(n):
    problem = two_decimal_instance(n, n)
    twin = exact_twin(problem)
    columns = evaluate_points(twin, space_points(n))
    want = [tuple(map(rounded, t)) for t in zip(*map(moments, columns))]
    space = space_moments(problem)
    got = [space.means, space.variances]
    assert [[v.hex() for v in t] for t in got] == [[v.hex() for v in t] for t in want]
    assert space.residual == 0 and type(space.residual) is float
    assert space.count == len(columns[0])


MIXED_INFINITIES = ("3\n0 0 0\n0 -1e154 0\n0 0 0\n"
                    "0 -1e154 0\n1e154 1e154 0\n1e154 2e154 -1e154\n")


# r is zero off the diagonal, so c1 and c2 vanish at every point and their
# enumerated means and variances are exactly 0.0, although f takes values
# of both signs near the float range. Var(c3) and Var(f) overflow, so the
# command still fails.
def test_mixed_infinities_enumerate_c1_and_c2_as_zero(tmp_path, capsys):
    path = tmp_path / "mixed_infinities.dat"
    path.write_text(MIXED_INFINITIES)
    assert run_cli(["stats", "--instance", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    for key in ("enumerated_means", "enumerated_variances"):
        assert results[key]["c1"] == results[key]["c2"] == 0.0
        assert type(results[key]["c1"]) is float


# The pass checks c1 + c2 + c3 = f as an integer identity at every point,
# on the problem scaled to integers, so a wrong case value shows as a
# residual in each problem kind.
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_a_wrong_case_value_leaves_a_residual(monkeypatch, kind):
    problem = PROBLEMS[kind](4)
    perturb_kind(monkeypatch, 2, "params", lambda p: p._replace(gamma=p.gamma + 1))
    space = space_moments(problem)
    assert space.residual > 0
    assert space.scale >= 1


@pytest.mark.parametrize("case", OmegaParams._fields)
@pytest.mark.parametrize("m", (1, 2, 3))
def test_verify_names_decomposition_sum_on_a_wrong_case_value(
        monkeypatch, capsys, m, case):
    perturb_kind(
        monkeypatch, m, "params",
        lambda p: p._replace(**{case: getattr(p, case) + 1}),
    )
    assert run_cli(["verify", "--n", "6"]) == 2
    lines = capsys.readouterr().out.splitlines()
    claim = next(line for line in lines if line.startswith("claim decomposition_sum:"))
    assert claim.endswith("(tol 0) FAIL  [all 720 permutations]")
