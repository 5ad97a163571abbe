"""Acceptance gate: one test per claimed identity, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
Rational-mode identities must hold with residuals that are literally zero;
the walk-based checks carry the stated statistical tolerances.
"""

import random
import time
from fractions import Fraction

from qaplandscape import (
    GeneralTensor,
    OmegaKind,
    Permutation,
    check_elementary,
    component_average,
    component_value_fast,
    component_value_ref,
    decompose,
    decomposition,
    empirical_autocorr,
    enumerate_space,
    neighborhood_avg_wave,
    neighborhood_size,
    omega,
    omega_neighborhood_sum_oracle,
    parse_qaplib,
    phi_diag,
    random_walk,
    serialize_qaplib,
    theoretical_autocorr,
    variance_triple,
    wave_predict_component,
)
from qaplandscape.cli import run_cli
from qaplandscape.decomposition import OmegaParams
from qaplandscape.spectral import autocorr_coefficient
from conftest import all_perms, random_perms, seeded_instance

SEEDS = [11, 12, 13, 14, 15]


def _report(criterion, detail):
    print(f"[PASS] {criterion}: {detail}")


def pair_tuples(n):
    return [
        (i, j, p, q)
        for i in range(n)
        for j in range(n)
        if j != i
        for p in range(n)
        for q in range(n)
        if q != p
    ]


def test_c01_decomposition_identity_exhaustive():
    started = time.perf_counter()
    checked = 0
    for n in (3, 4, 5, 6):
        perms = all_perms(n)
        for seed in SEEDS:
            inst = seeded_instance(n, seed)
            for x in perms:
                t = decompose(inst, x)
                f = inst.fitness(x)
                assert t.total == f
                assert t.c1 + t.c2 + t.c3 == f
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        "C01 decomposition identity",
        f"c1+c2+c3 = f exactly at {checked} (instance, permutation) pairs, "
        f"n in 3..6, 5 seeds each, {elapsed:.1f}s",
    )


def test_c02_per_component_wave_equation_exhaustive():
    for n in (4, 5, 6):
        inst = seeded_instance(n, 97)
        perms = all_perms(n)
        d = neighborhood_size(n)
        triple_at = {x.mapping: decompose(inst, x) for x in perms}
        for x in perms:
            sums = [0, 0, 0]
            for y in x.neighbors():
                t = triple_at[y.mapping]
                for m in range(3):
                    sums[m] = sums[m] + t[m]
            for m in (1, 2, 3):
                brute = Fraction(sums[m - 1], d)
                predicted = wave_predict_component(inst, m, x)
                assert brute == predicted
    _report(
        "C02 per-component wave equation",
        "brute neighbor mean of each component equals "
        "c_m + (k_m/d)(mean_m - c_m) with k = 2n, 2(n-1), n; "
        "exhaustive for n in 4..6, zero residual",
    )


def test_c03_position_indicator_elementary():
    n = 5
    report = check_elementary(lambda x: phi_diag(1, 3, x), n)
    assert report.is_elementary
    assert report.fitted_k == 5
    stats = enumerate_space(lambda x: phi_diag(1, 3, x), n)
    assert stats.mean == Fraction(1, 5)
    _report(
        "C03 position indicator",
        "elementary with recovered k = 5 and enumerated mean 1/5 at n = 5",
    )


def test_c04_omega_kinds_elementary():
    n = 5
    rng = random.Random(41)
    tuples = rng.sample(pair_tuples(n), 12)
    expected = {
        OmegaKind.OMEGA1: (10, Fraction(-1)),
        OmegaKind.OMEGA2: (8, Fraction(1, 2)),
        OmegaKind.OMEGA3: (5, Fraction(1)),
    }
    for kind, (k, mean) in expected.items():
        for (i, j, p, q) in tuples:
            fn = lambda x: omega(kind, i, j, p, q, x)
            report = check_elementary(fn, n)
            assert report.is_elementary, (kind, i, j, p, q)
            assert report.fitted_k == k
            assert enumerate_space(fn, n).mean == mean
    _report(
        "C04 five-case family",
        "all three kinds elementary at n = 5 with k = 10, 8, 5 and means "
        "-1, 1/2, 1 over 12 sampled index tuples each",
    )


def test_c05_case_sum_formulas_exhaustive():
    checked = 0
    for n in (4, 5):
        perms = all_perms(n)
        tuples = pair_tuples(n)
        for x in perms:
            neighbors = list(x.neighbors())
            for kind in OmegaKind:
                for (i, j, p, q) in tuples:
                    literal = sum(
                        omega(kind, i, j, p, q, y) for y in neighbors
                    )
                    closed = omega_neighborhood_sum_oracle(kind, i, j, p, q, x)
                    assert closed == literal
                    checked += 1
    _report(
        "C05 case-sum formulas",
        f"closed-form neighbor sums equal literal enumeration in "
        f"{checked} (kind, tuple, permutation) cases, exhaustive at n = 4, 5",
    )


def test_c06_composite_objective_not_elementary():
    inst = seeded_instance(5, 42)
    report = check_elementary(inst.fitness, 5)
    assert not report.is_elementary
    assert report.max_residual > 0
    assert report.worst_point is not None
    assert sorted(report.worst_point.mapping) == list(range(5))
    _report(
        "C06 composite non-elementarity",
        f"best affine fit leaves max residual {report.max_residual} > 0, "
        f"witness x = {list(report.worst_point.mapping)}",
    )


def test_c07_neighborhood_average_formula():
    for n in (4, 5, 6, 7):
        inst = seeded_instance(n, n * 100 + 1)
        d = neighborhood_size(n)
        for x in random_perms(n, 200, seed=n):
            brute = Fraction(sum(inst.fitness(y) for y in x.neighbors()), d)
            assert neighborhood_avg_wave(inst, x) == brute
    _report(
        "C07 neighborhood-average formula",
        "wave-equation average equals brute-force neighbor mean exactly, "
        "n in 4..7, 200 random permutations per n",
    )


def test_c08_closed_form_averages():
    for n in (4, 5, 6):
        inst = seeded_instance(n, 5)
        perms = all_perms(n)
        triples = [decompose(inst, x) for x in perms]
        for m in (1, 2, 3):
            enumerated = Fraction(sum(t[m - 1] for t in triples), len(perms))
            assert component_average(inst, m) == enumerated
    _report(
        "C08 closed-form averages",
        "component means match full enumeration exactly for n in 4..6",
    )


def test_c09_variance_orthogonality():
    for n in (3, 4, 5, 6):
        for seed in SEEDS:
            inst = seeded_instance(n, seed)
            vt = variance_triple(inst)
            assert vt.c1 + vt.c2 + vt.c3 == vt.total
    _report(
        "C09 variance orthogonality",
        "Var(f) = Var(c1) + Var(c2) + Var(c3) exactly, n in 3..6, 5 seeds each",
    )


def test_c10_fast_path_equivalence_and_speed():
    rng = random.Random(1010)
    tensors = {}
    for _ in range(1000):
        n = rng.randint(4, 12)
        seed = rng.randrange(8)
        key = (n, seed)
        if key not in tensors:
            inst = seeded_instance(n, seed)
            tensors[key] = (inst, GeneralTensor.from_qap(inst))
        inst, tensor = tensors[key]
        x = Permutation.random(n, rng)
        m = rng.randint(1, 3)
        assert component_value_fast(inst, m, x) == component_value_ref(tensor, m, x)

    big = seeded_instance(100, 3)
    xs = random_perms(100, 5, seed=9)
    decompose(big, xs[0])  # warm-up
    started = time.perf_counter()
    rounds = 4
    for _ in range(rounds):
        for x in xs:
            decompose(big, x)
    per_call = (time.perf_counter() - started) / (rounds * len(xs)) * 1000
    # target is 10 ms; keep a wide margin so a loaded machine cannot flake
    assert per_call < 100
    _report(
        "C10 fast-path equivalence",
        f"fast == reference on 1000 random (instance, x, m) triples, "
        f"n in 4..12; full triple at n = 100 takes {per_call:.2f} ms "
        "(target 10 ms, smoke threshold 100 ms)",
    )


def test_c11_autocorrelation_consistency():
    inst = seeded_instance(10, 7)
    series = random_walk(inst, 100000, seed=13)
    empirical = empirical_autocorr(series, 5)
    theoretical = theoretical_autocorr(inst, 5)
    worst = max(
        abs(e - float(t)) for e, t in zip(empirical[1:], theoretical[1:])
    )
    assert worst <= 0.02

    checked = 0
    for n in (4, 5, 6, 7, 8, 12, 24):
        for seed in range(10):
            inst = seeded_instance(n, seed)
            cb = autocorr_coefficient(inst)
            assert cb.lo < cb.xi < cb.hi
            assert (cb.lo, cb.hi) == (Fraction(n - 1, 4), Fraction(n - 1, 2))
            checked += 1
    _report(
        "C11 autocorrelation",
        f"|empirical - predicted| <= 0.02 for lags 1..5 on a 1e5-step walk "
        f"(worst {worst:.4f}); coefficient within [(n-1)/4, (n-1)/2] on "
        f"{checked} seeded instances, n in 4..8, 12, 24 (exact weights)",
    )


def test_c12_cli_contract(capsys, monkeypatch):
    inst = seeded_instance(6, 3, 0, 99)
    assert parse_qaplib(serialize_qaplib(inst)) == inst

    code = run_cli(["verify", "--n", "4", "--seed", "1"])
    assert code == 0
    code = run_cli(["verify", "--gen", "5,2,0,9"])
    assert code == 0

    monkeypatch.setitem(
        decomposition.OMEGA_PARAMS,
        OmegaKind.OMEGA1,
        lambda n: OmegaParams(n - 2, 1 - n, -2, 0, -1),
    )
    code = run_cli(["verify", "--n", "4", "--seed", "1"])
    assert code == 2
    capsys.readouterr()
    _report(
        "C12 CLI contract",
        "generate -> serialize -> parse round-trips; verify exits 0 on the "
        "clean build and 2 with a deliberately perturbed case coefficient",
    )
