import pytest

from qaplandscape import decomposition, generate_instance
from qaplandscape.decomposition import OmegaParams
from conftest import perturb_kind
from qaplandscape.oracle import DEFAULT_ENUMERATION_CAP
from qaplandscape.verification import run_verification


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
