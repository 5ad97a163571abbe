import random

import pytest

from qaplandscape import decomposition, generate_instance, verification
from qaplandscape.decomposition import OmegaKind, _omega_case
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

    def off_by_one(kind, i, j, p, q, x):
        return oracle(kind, i, j, p, q, x) + (_omega_case(i, j, p, q, x) == case)

    monkeypatch.setattr(verification, "omega_neighborhood_sum_oracle", off_by_one)
    assert _failed(run_verification(problem, cap=cap)) == {"case_sum_formulas"}


# n=5 reads neighbour values from the enumerated columns; n=7 beyond cap 4
# evaluates each sampled point's neighbours.
@pytest.mark.parametrize("n, cap", [(5, DEFAULT_ENUMERATION_CAP), (7, 4)])
@pytest.mark.parametrize("m", (1, 2, 3))
def test_wave_claims_catch_a_wrong_constant(monkeypatch, n, cap, m):
    constant = decomposition.characteristic_constant

    def perturbed(kind, size):
        return constant(kind, size) + (kind is OmegaKind(m))

    monkeypatch.setattr(decomposition, "characteristic_constant", perturbed)
    failed = _failed(run_verification(generate_instance(n, 1, 0, 9), cap=cap))
    assert failed == {f"wave_component_{m}", "neighborhood_average"}
