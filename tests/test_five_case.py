"""The five-case lemmas, exhaustive for every n.

Two checks together cover every n >= 3 and every index tuple:

- Every permutation at n = 3..7, for the tuple (0, 1, 0, 1).
- Every tuple and every permutation at n = 4, 5, which exercises the
  classifier's index handling (acceptance C05 and
  test_decomposition.TestOmega.test_space_means_exhaustive).

Why one tuple suffices (relabelling). For i != j and p != q pick a
permutation s of positions with s(i) = 0, s(j) = 1 and a permutation t of
targets with t(p) = 0, t(q) = 1. The map x -> t x s^-1 permutes S_n, puts x
in the same case for (i, j, p, q) as its image for (0, 1, 0, 1), and maps
the swap neighbourhood of x onto that of its image, since x (u v) goes to
(t x s^-1)(s(u) s(v)). The closed form depends on the case and n alone, so
both lemmas at (i, j, p, q) are the lemmas at (0, 1, 0, 1).

Why n = 3..7 suffices (degree). Fix where x puts p and q relative to the
positions i and j; this fixes x's case. The neighbours x (u v) then fall
into the five cases by how {u, v} meets the at most four positions i, j,
x^-1(p), x^-1(q), so each case's neighbour count is a polynomial in n of
degree at most 2. Case values are at most linear in n and d = n(n-1)/2, so
both sides of the neighbour-sum lemma are polynomials in n of degree at
most 3. For the means the same holds after multiplying by n(n-1): each
case's share of S_n times n(n-1) is 1, 1, 2(n-2), 2(n-2) or (n-2)(n-3).
Every placement of p and q exists from n = 4 on (the zeta case, where
neither sits at i or j, is the last to appear), so n = 4..7 gives four
points, which pin down a cubic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import Permutation, decomposition
from qaplandscape.decomposition import _omega_case
from conftest import perturb_kind
from five_case import (
    case_sum_mismatches,
    pair_tuples,
    space_mean_mismatches,
    tensor_case_totals,
)
from strategies import sparse_tensors

ONE_TUPLE = [(0, 1, 0, 1)]


@pytest.mark.parametrize("n", range(3, 8))
def test_case_sums_every_permutation(n):
    assert case_sum_mismatches(n, ONE_TUPLE) == []


@pytest.mark.parametrize("n", range(3, 8))
def test_space_means_every_permutation(n):
    assert space_mean_mismatches(n, ONE_TUPLE) == []


# n=4 with every tuple, n=7 with the relabelled one.
@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("case", range(5))
def test_case_sums_catch_one_wrong_case_formula(monkeypatch, case, n):
    oracle = decomposition.omega_neighborhood_sum_oracle

    def off_by_one(m, i, j, p, q, x):
        return oracle(m, i, j, p, q, x) + (_omega_case(i, j, p, q, x) == case)

    monkeypatch.setattr(decomposition, "omega_neighborhood_sum_oracle", off_by_one)
    tuples = pair_tuples(n) if n == 4 else ONE_TUPLE
    assert case_sum_mismatches(n, tuples)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_space_means_catch_a_wrong_mean(monkeypatch, m):
    perturb_kind(monkeypatch, m, "mean", lambda mean: (mean[0] + 1, mean[1]))
    failed = space_mean_mismatches(4, pair_tuples(4))
    assert failed and {kind for kind, _, _ in failed} == {m}


# The literal classifier, the oracle of the block pass, loses no
# coefficient: its five case masses add up to the off-diagonal total.
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_masses_add_up_to_the_off_diagonal_sum(data):
    tensor = data.draw(sparse_tensors())
    x = Permutation(data.draw(st.permutations(range(tensor.n))))
    masses = tensor_case_totals(tensor, x)[:5]
    assert sum(masses) == tensor.coefficient_sums()[0]
