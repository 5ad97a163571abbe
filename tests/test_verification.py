import pytest

from qaplandscape import (
    Permutation, QapInstance, decomposition, generate_instance, oracle, verification,
)
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import OmegaParams
from conftest import perturb_kind
from qaplandscape.oracle import DEFAULT_ENUMERATION_CAP, SAMPLE_SIZE
from qaplandscape.verification import run_verification


def _failed(results):
    """The claims that failed, by the CLI's rule: a skipped claim neither
    passes nor fails."""
    return {r.name for r in results if not r.skipped and not r.passed}


# n=5 checks every permutation's neighbourhood; n=7 beyond cap 4 checks 20
# sampled points' neighbourhoods.
@pytest.mark.parametrize("n, cap", [(5, DEFAULT_ENUMERATION_CAP), (7, 4)])
@pytest.mark.parametrize("m", (1, 2, 3))
def test_wave_claims_catch_a_wrong_constant(monkeypatch, n, cap, m):
    perturb_kind(monkeypatch, m, "k", lambda k: k + 1)
    failed = _failed(run_verification(generate_instance(n, 1, 0, 9), cap=cap))
    assert failed == {f"wave_component_{m}", "neighborhood_average"}


# Each wave point is decomposed once (one decomposition._sums call) and its
# neighborhood visited once: one oracle._sums call at the point and one O(n)
# update per swap, so no neighbor permutation is listed. The whole space
# comes from the streamed pass, n! - 1 updates from the identity.
# fast_vs_reference adds 20 points each on the instance and its tensor. The
# closed-form means are formed once per run.
def _wave_calls(monkeypatch, n):
    """Calls of decomposition._sums, oracle._sums, oracle._swap_sum_deltas,
    Permutation.neighbors and average_triple made by one passing
    run_verification at size n."""
    calls = {"sums": 0, "neighbor_sums": 0, "updates": 0, "neighbors": 0,
             "averages": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(decomposition, "_sums", counted("sums", decomposition._sums))
    monkeypatch.setattr(oracle, "_sums", counted("neighbor_sums", oracle._sums))
    monkeypatch.setattr(oracle, "_swap_sum_deltas",
                        counted("updates", oracle._swap_sum_deltas))
    monkeypatch.setattr(Permutation, "neighbors",
                        counted("neighbors", Permutation.neighbors))
    average_triple = counted("averages", decomposition.average_triple)
    for module in (decomposition, verification):
        monkeypatch.setattr(module, "average_triple", average_triple)
    results = run_verification(generate_instance(n, 1, 0, 9))
    assert not _failed(results)
    return calls


def test_each_wave_point_is_evaluated_once(monkeypatch):
    assert _wave_calls(monkeypatch, 5) == {
        "sums": 120 + 2 * 20, "neighbor_sums": 120, "updates": 119 + 120 * 10,
        "neighbors": 0, "averages": 1,
    }


# At n=7 the space is still taken whole, but the 20 wave points are sampled.
def test_each_sampled_wave_point_is_evaluated_once(monkeypatch):
    assert _wave_calls(monkeypatch, 7) == {
        "sums": 20 + 2 * 20, "neighbor_sums": 20, "updates": 5039 + 20 * 21,
        "neighbors": 0, "averages": 1,
    }


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


def p_q_exchanged(sums):
    same, swapped, diag, p, q = sums
    return same, swapped, diag, q, p


# Exhaustive at n=5; beyond cap 4 at n=7, where only 20 points are compared.
# The P and Q sums are exchanged in the fast path's _raw_sums and,
# separately, in the reference's _tensor_sums.
@pytest.mark.parametrize("target, n, cap", [
    pytest.param("_raw_sums", 5, DEFAULT_ENUMERATION_CAP, id="5-8"),
    pytest.param("_raw_sums", 7, 4, id="7-4"),
    pytest.param("_tensor_sums", 5, DEFAULT_ENUMERATION_CAP, id="reference-5-8"),
    pytest.param("_tensor_sums", 7, 4, id="reference-7-4"),
])
def test_fast_vs_reference_catches_a_wrong_fast_path(monkeypatch, target, n, cap):
    real = getattr(decomposition, target)
    monkeypatch.setattr(decomposition, target, lambda *args: p_q_exchanged(real(*args)))
    failed = _failed(run_verification(generate_instance(n, 1, 0, 9), cap=cap))
    assert "fast_vs_reference" in failed


# QapInstance.coefficient_sums off by one, on both sides of every claim that
# reads it; the tensor of fast_vs_reference forms its own totals. T, the
# off-diagonal total, moves c2 and c3 (decompose, the wave predictions and
# the closed-form means), but not the enumerated mean of c1 against its
# closed form: kind 1's zeta value equals its space mean (-1), so a wrong T
# shifts both sides alike. The diagonal total moves only mean_3, and f's
# neighborhood prediction through it.
@pytest.mark.parametrize("total, caught", [
    pytest.param(0, {"fast_vs_reference", "closed_form_mean_2", "closed_form_mean_3",
                     "wave_component_2", "wave_component_3"}, id="off-diagonal"),
    pytest.param(1, {"closed_form_mean_3", "wave_component_3", "neighborhood_average"},
                 id="diagonal"),
])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_each_coefficient_total_is_caught(monkeypatch, total, caught, mode):
    real = QapInstance.coefficient_sums

    def shifted(inst):
        sums = list(real(inst))
        sums[total] += 1
        return tuple(sums)

    monkeypatch.setattr(QapInstance, "coefficient_sums", shifted)
    inst = generate_instance(5, 1, 0, 9)
    failed = _failed(run_verification(inst if mode == "rational" else inst.as_float()))
    assert failed == caught


# The components (and whether f) that move when one term of the five-sum
# update (decomposition._swap_sum_deltas) is dropped from the streamed pass
# and the wave claims' neighborhood means: one whole sum's change, or one of the
# two products that each of P's and Q's changes adds up (p1 and p2 pair the
# marginal differences of r and w row with row and column with column, q1
# and q2 row with column and column with row).
# decomposition_sum never catches it: c1 + c2 + c3 = f_same holds for any
# five sums. c3 is first order and does not read f_same or f_swapped; c1
# does not read the diagonal sum.
DROPPED_TERMS = {
    "f_same": ({1, 2}, True),
    "f_swapped": ({1, 2}, False),
    "diag": ({2, 3}, False),
    "P": ({1, 2, 3}, False),
    "Q": ({1, 2, 3}, False),
    "p1": ({1, 2, 3}, False),
    "p2": ({1, 2, 3}, False),
    "q1": ({1, 2, 3}, False),
    "q2": ({1, 2, 3}, False),
}
SUMS = ("f_same", "f_swapped", "diag", "P", "Q")


def dropped_change(term, inst, mapping, u, v):
    """(index of the sum, the change dropped from it) for one term of the
    update of the swap (u, v)."""
    if term in SUMS:
        return SUMS.index(term), None
    a, b = mapping[u], mapping[v]
    row_r = inst._row_off_r[u] - inst._row_off_r[v]
    col_r = inst._col_off_r[u] - inst._col_off_r[v]
    row_w = inst._row_off_w[b] - inst._row_off_w[a]
    col_w = inst._col_off_w[b] - inst._col_off_w[a]
    return {"p1": (3, row_r * row_w), "p2": (3, col_r * col_w),
            "q1": (4, row_r * col_w), "q2": (4, col_r * row_w)}[term]


# At n=5 the wave claims run the update at every point's neighbors, and the
# streamed pass runs it from point to point; at n=7 the wave claims run it
# at 20 sampled points, and at n=9, beyond cap 8, they are the only claims
# that run it.
@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("term", DROPPED_TERMS)
def test_every_term_of_the_streamed_update_is_caught(monkeypatch, capsys, n, term):
    real = oracle._swap_sum_deltas

    def dropped(*args):
        deltas = list(real(*args))
        index, change = dropped_change(term, *args)
        deltas[index] = 0 if change is None else deltas[index] - change
        return tuple(deltas)

    monkeypatch.setattr(oracle, "_swap_sum_deltas", dropped)
    components, f_moves = DROPPED_TERMS[term]
    whole_space = n <= DEFAULT_ENUMERATION_CAP
    caught = {"variance_orthogonality"} if whole_space else set()
    for m in components:
        caught.add(f"wave_component_{m}")
        if whole_space:
            caught |= {f"closed_form_mean_{m}", f"closed_form_variance_{m}"}
    if f_moves:
        caught.add("neighborhood_average")
    assert _failed(run_verification(generate_instance(n, 1, 0, 9))) == caught
    assert run_cli(["verify", "--gen", f"{n},1,0,9"]) == 2
    assert "FAIL" in capsys.readouterr().out


# Beyond the cap a space of at most SAMPLE_SIZE points is taken whole, each
# permutation once, and every claim runs on it.
@pytest.mark.parametrize("n, size", [(3, 6), (4, 24), (5, 120)])
def test_small_space_beyond_the_cap_is_taken_whole(n, size):
    results = run_verification(generate_instance(n, 1, 0, 9), cap=0)
    assert not _failed(results)
    details = {r.name: r.detail for r in results if not r.skipped}
    assert details.pop("fast_vs_reference") == "20 permutations, all components"
    assert details == dict.fromkeys([
        "decomposition_sum", "wave_component_1", "wave_component_2",
        "wave_component_3", "neighborhood_average",
        *(f"{claim}_{m}" for claim in ("closed_form_mean", "closed_form_variance")
          for m in (1, 2, 3)),
        "variance_orthogonality",
    ], f"all {size} permutations")
    assert sum(r.skipped for r in results) == 0


def test_larger_space_beyond_the_cap_is_sampled():
    results = run_verification(generate_instance(6, 1, 0, 9), cap=0)
    details = {r.name: r.detail for r in results}
    assert details["decomposition_sum"] == f"{SAMPLE_SIZE} sampled permutations"
    assert details["wave_component_1"] == "20 sampled permutations"
