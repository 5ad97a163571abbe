import random

import pytest

from qaplandscape import decomposition, generate_instance, verification
from qaplandscape.decomposition import OmegaParams, _omega_case
from conftest import perturb_kind
from qaplandscape.oracle import DEFAULT_ENUMERATION_CAP
from qaplandscape.verification import (
    _pair_index_tuple,
    _pair_index_tuples,
    _sample_pair_index_tuples,
    run_verification,
)


@pytest.mark.parametrize("n", range(3, 9))
def test_index_decoder_matches_the_list(n):
    pool = _pair_index_tuples(n)
    assert [_pair_index_tuple(t, n) for t in range(len(pool))] == pool


@pytest.mark.parametrize("n", range(3, 9))
def test_sampling_draws_what_the_list_would(n):
    pool = _pair_index_tuples(n)
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        for k in (60, 10):
            assert _sample_pair_index_tuples(a, n, k) == b.sample(pool, min(k, len(pool)))
        assert a.random() == b.random()  # the rest of the stream is unchanged


def test_sampling_at_large_n_builds_no_list():
    tuples = _sample_pair_index_tuples(random.Random(0), 200, 60)
    assert len(set(tuples)) == 60
    assert all(i != j and p != q for i, j, p, q in tuples)


def _failed(results):
    return {r.name for r in results if not r.passed}


# Every index tuple at n=4, sampled tuples at n=6 beyond the cap.
CASE_SUM_INSTANCES = {
    "n4-all-tuples": (generate_instance(4, 1, 0, 9), DEFAULT_ENUMERATION_CAP),
    "n6-cap4-sampled": (generate_instance(6, 2, 0, 9), 4),
}


@pytest.mark.parametrize("source", list(CASE_SUM_INSTANCES))
@pytest.mark.parametrize("case", range(5))
def test_case_sum_claim_catches_one_wrong_case_formula(monkeypatch, source, case):
    problem, cap = CASE_SUM_INSTANCES[source]
    oracle = verification.omega_neighborhood_sum_oracle

    def off_by_one(m, i, j, p, q, x):
        return oracle(m, i, j, p, q, x) + (_omega_case(i, j, p, q, x) == case)

    monkeypatch.setattr(verification, "omega_neighborhood_sum_oracle", off_by_one)
    assert _failed(run_verification(problem, cap=cap)) == {"case_sum_formulas"}


# n=5 reads neighbour values from the enumerated columns; n=7 beyond cap 4
# evaluates each sampled point's neighbours.
@pytest.mark.parametrize("n, cap", [(5, DEFAULT_ENUMERATION_CAP), (7, 4)])
@pytest.mark.parametrize("m", (1, 2, 3))
def test_wave_claims_catch_a_wrong_constant(monkeypatch, n, cap, m):
    perturb_kind(monkeypatch, m, "k", lambda k: k + 1)
    failed = _failed(run_verification(generate_instance(n, 1, 0, 9), cap=cap))
    assert failed == {f"wave_component_{m}", "neighborhood_average"}


# The claims that fail when one column of one kind's row of KIND_CONSTANTS
# is off by one, at n=5 with every permutation enumerated. A wrong weight
# denominator of kind 3 also scales the diagonal term of c3, so Var(c3)
# still matches its closed form and only the sum claims catch it. Beyond the
# cap a wrong dimension goes unnoticed: the variance claims are skipped there.
MUTATIONS = {
    "k": (lambda k: k + 1, lambda m: {f"wave_component_{m}", "neighborhood_average"}),
    "den": (lambda den: den + 1, lambda m: {
        "decomposition_sum", "neighborhood_average", "variance_orthogonality",
    } | ({f"closed_form_variance_{m}"} if m != 3 else set())),
    "dim": (lambda dim: dim + 1, lambda m: {f"closed_form_variance_{m}"}),
    "mean": (lambda mean: (mean[0] + 1, mean[1]), lambda m: {
        f"wave_component_{m}", "neighborhood_average",
        f"closed_form_mean_{m}", "enumerated_case_means",
    }),
}


@pytest.mark.parametrize("column", sorted(MUTATIONS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_every_table_constant_is_caught(monkeypatch, column, m):
    change, caught = MUTATIONS[column]
    perturb_kind(monkeypatch, m, column, change)
    failed = _failed(run_verification(generate_instance(5, 1, 0, 9)))
    assert failed == caught(m)


# Both sides of case_sum_formulas read the case values, so a wrong one
# escapes that claim and every other claim on the component catches it.
@pytest.mark.parametrize("case", OmegaParams._fields)
@pytest.mark.parametrize("m", (1, 2, 3))
def test_every_case_value_is_caught(monkeypatch, case, m):
    perturb_kind(
        monkeypatch, m, "params",
        lambda p: p._replace(**{case: getattr(p, case) + 1}),
    )
    failed = _failed(run_verification(generate_instance(5, 1, 0, 9)))
    assert failed == {
        "decomposition_sum", f"wave_component_{m}", "neighborhood_average",
        f"closed_form_mean_{m}", f"closed_form_variance_{m}",
        "variance_orthogonality", "enumerated_case_means",
    }


# Exhaustive at n=5; beyond cap 4 at n=7, where only 20 points are compared.
# The same exchange of the gamma and epsilon masses is made on the fast path
# and, separately, on the reference pass.
@pytest.mark.parametrize("totals, n, cap", [
    pytest.param("_case_totals", 5, DEFAULT_ENUMERATION_CAP, id="5-8"),
    pytest.param("_case_totals", 7, 4, id="7-4"),
    pytest.param("_tensor_case_totals", 5, DEFAULT_ENUMERATION_CAP, id="reference-5-8"),
    pytest.param("_tensor_case_totals", 7, 4, id="reference-7-4"),
])
def test_fast_vs_reference_catches_a_wrong_fast_path(monkeypatch, totals, n, cap):
    case_totals = getattr(decomposition, totals)

    def gamma_epsilon_exchanged(problem, x):
        sa, sb, sg, se, sz, diag = case_totals(problem, x)
        return sa, sb, se, sg, sz, diag

    monkeypatch.setattr(decomposition, totals, gamma_epsilon_exchanged)
    failed = _failed(run_verification(generate_instance(n, 1, 0, 9), cap=cap))
    assert "fast_vs_reference" in failed
