"""The streamed whole-space pass behind `stats` and `verify`
(oracle.space_moments) against the literal oracles.

In rational mode the pass keeps no values: each component is an integer
numerator over one denominator, and only the sums and sums of squares of
the numerators are carried. Its moments must equal those of the literal
columns of evaluate_points, and variance_triple, exactly, on integer and
Fraction entries, on a tensor that is not of product form, and on entries
far beyond any machine integer. In float mode it keeps the four columns
of space_rows, and its moments and residual must be bit-identical to
summing those columns.
"""

import random
from fractions import Fraction

import pytest

from qaplandscape import GeneralTensor, QapInstance, variance_triple
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import OmegaParams
from qaplandscape.oracle import (
    _Residual,
    evaluate_points,
    moments,
    space_moments,
    space_points,
    space_rows,
)
from conftest import fraction_instance, huge_instance, perturb_kind, seeded_instance


def general_tensor(n, seed, denominators=None):
    """Random coefficients, not of product form: integers, or Fractions
    over the given denominators."""
    rng = random.Random(seed)

    def entry():
        v = rng.randint(-5, 9)
        return v if denominators is None else Fraction(v, rng.choice(denominators))

    return GeneralTensor([
        [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ])


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


# variance_triple is the population variance of the same literal columns,
# from a second enumeration; it is compared where that is cheap.
@pytest.mark.parametrize("kind, n", CASES)
def test_streamed_moments_equal_the_literal_columns(kind, n):
    problem = PROBLEMS[kind](n)
    space = space_moments(problem)
    columns = evaluate_points(problem, space_points(n))
    assert (space.means, space.variances) == tuple(zip(*map(moments, columns)))
    if n <= 6 or kind == "integer":
        assert space.variances == variance_triple(problem)
    assert all(type(v) is Fraction for v in (*space.means, *space.variances))
    assert space.count == len(columns[3])
    assert space.residual == 0


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_table_rows_equal_space_rows(kind):
    problem = PROBLEMS[kind](5)
    table = {}
    space_moments(problem, table)
    assert list(table.items()) == list(space_rows(problem))


def float_instance(n, seed):
    rng = random.Random(seed)

    def square():
        return [[rng.uniform(-1e3, 1e3) for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


@pytest.mark.parametrize("n", range(3, 8))
def test_float_moments_are_those_of_the_columns(n):
    problem = float_instance(n, n)
    columns = ([], [], [], [])
    res = _Residual()
    for _, row in space_rows(problem):
        for col, value in zip(columns, row):
            col.append(value)
        res.add(row[0] + row[1] + row[2], row[3])
    want = [*zip(*map(moments, columns)), (res.max, res.scale)]
    space = space_moments(problem)
    got = [space.means, space.variances, (space.residual, space.scale)]
    assert [[v.hex() for v in t] for t in got] == [[v.hex() for v in t] for t in want]
    assert space.count == len(columns[0])
    table = {}
    space_moments(problem, table)
    assert list(table.items()) == list(space_rows(problem))


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
