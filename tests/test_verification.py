import pytest

from qaplandscape import decomposition, generate_instance, oracle
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import OmegaParams
from conftest import perturb_kind
from qaplandscape.oracle import DEFAULT_ENUMERATION_CAP
from qaplandscape.verification import SAMPLE_SIZE, run_verification


def _failed(results):
    return {r.name for r in results if not r.passed}


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
        f"closed_form_mean_{m}",
    }),
}


@pytest.mark.parametrize("column", sorted(MUTATIONS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_every_table_constant_is_caught(monkeypatch, column, m):
    change, caught = MUTATIONS[column]
    perturb_kind(monkeypatch, m, column, change)
    failed = _failed(run_verification(generate_instance(5, 1, 0, 9)))
    assert failed == caught(m)


# A wrong case value is caught by every claim on the component.
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
        "variance_orthogonality",
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


# The components (and whether f) that move when one term of the seven-sum
# update of the streamed pass (decomposition._swap_sum_deltas) is dropped.
# decomposition_sum never catches it: c1 + c2 + c3 = f_same holds for any
# seven sums. c3 is first order and does not read f_same or f_swapped; c1
# does not read the diagonal sum.
DROPPED_TERMS = {
    "f_same": ({1, 2}, True),
    "f_swapped": ({1, 2}, False),
    "diag": ({2, 3}, False),
    "p1": ({1, 2, 3}, False),
    "p2": ({1, 2, 3}, False),
    "q1": ({1, 2, 3}, False),
    "q2": ({1, 2, 3}, False),
}


# At n=5 the wave claims read the streamed table; at n=7 they evaluate 20
# sampled points in full, so only the whole-space claims catch the drop.
@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("term", DROPPED_TERMS)
def test_every_term_of_the_streamed_update_is_caught(monkeypatch, capsys, n, term):
    index = list(DROPPED_TERMS).index(term)
    real = oracle._swap_sum_deltas

    def dropped(*args):
        deltas = list(real(*args))
        deltas[index] = 0
        return tuple(deltas)

    monkeypatch.setattr(oracle, "_swap_sum_deltas", dropped)
    components, f_moves = DROPPED_TERMS[term]
    caught = {"variance_orthogonality"}
    for m in components:
        caught |= {f"closed_form_mean_{m}", f"closed_form_variance_{m}"}
        if n <= 6:
            caught.add(f"wave_component_{m}")
    if f_moves and n <= 6:
        caught.add("neighborhood_average")
    assert _failed(run_verification(generate_instance(n, 1, 0, 9))) == caught
    assert run_cli(["verify", "--gen", f"{n},1,0,9"]) == 2
    assert "FAIL" in capsys.readouterr().out


# Beyond the cap a space of at most SAMPLE_SIZE points is taken whole, each
# permutation once; the claims that need the full space still skip.
@pytest.mark.parametrize("n, size", [(3, 6), (4, 24), (5, 120)])
def test_small_space_beyond_the_cap_is_taken_whole(n, size):
    results = run_verification(generate_instance(n, 1, 0, 9), cap=0)
    assert all(r.passed for r in results)
    details = {r.name: r.detail for r in results if not r.skipped}
    assert details.pop("fast_vs_reference") == "20 permutations, all components"
    assert details == dict.fromkeys([
        "decomposition_sum", "wave_component_1", "wave_component_2",
        "wave_component_3", "neighborhood_average",
    ], f"all {size} permutations")
    assert sum(r.skipped for r in results) == 7


def test_larger_space_beyond_the_cap_is_sampled():
    results = run_verification(generate_instance(6, 1, 0, 9), cap=0)
    details = {r.name: r.detail for r in results}
    assert details["decomposition_sum"] == f"{SAMPLE_SIZE} sampled permutations"
    assert details["wave_component_1"] == "20 sampled permutations"
