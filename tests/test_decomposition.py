import random
from fractions import Fraction
from itertools import permutations

import pytest

from qaplandscape import (
    GeneralTensor,
    OmegaKind,
    Permutation,
    QapInstance,
    average_triple,
    characteristic_constant,
    component_average,
    component_value_fast,
    component_value_ref,
    decompose,
    neighborhood_avg_wave,
    neighborhood_size,
    omega,
    omega_mean,
    omega_neighborhood_sum_oracle,
    omega_params,
    phi_diag,
    wave_predict_component,
    weight_denominator,
)
from qaplandscape.decomposition import _omega_case
from conftest import (
    all_perms,
    random_perms,
    seeded_instance,
    single_entry_tensor,
    tensor_with,
    zero_psi,
)

KINDS = list(OmegaKind)


def perm_with(n, assignments):
    """Permutation honoring {position: value} and filling the rest in order."""
    mapping = [None] * n
    used = set()
    for pos, val in assignments.items():
        mapping[pos] = val
        used.add(val)
    free = [v for v in range(n) if v not in used]
    for pos in range(n):
        if mapping[pos] is None:
            mapping[pos] = free.pop(0)
    return Permutation(mapping)


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


class TestParameterTable:
    def test_vectors_at_n5(self):
        assert omega_params(OmegaKind.OMEGA1, 5) == (2, -4, -2, 0, -1)
        assert omega_params(OmegaKind.OMEGA2, 5) == (2, 2, 0, 0, 1)
        assert omega_params(OmegaKind.OMEGA3, 5) == (7, 1, 3, 0, -1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_constants(self, n):
        assert characteristic_constant(OmegaKind.OMEGA1, n) == 2 * n
        assert characteristic_constant(OmegaKind.OMEGA2, n) == 2 * (n - 1)
        assert characteristic_constant(OmegaKind.OMEGA3, n) == n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_weight_denominators(self, n):
        assert weight_denominator(OmegaKind.OMEGA1, n) == 2 * n
        assert weight_denominator(OmegaKind.OMEGA2, n) == 2 * (n - 2)
        assert weight_denominator(OmegaKind.OMEGA3, n) == n * (n - 2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_wave_coefficients_reduce(self, n):
        d = neighborhood_size(n)
        assert Fraction(2 * n, d) == Fraction(4, n - 1)
        assert Fraction(2 * (n - 1), d) == Fraction(4, n)
        assert Fraction(n, d) == Fraction(2, n - 1)


class TestPhiDiag:
    def test_values(self):
        x = Permutation.identity(4)
        assert phi_diag(2, 2, x) == 1
        assert phi_diag(0, 1, x) == 0

    def test_index_validation(self):
        x = Permutation.identity(4)
        with pytest.raises(ValueError):
            phi_diag(4, 0, x)
        with pytest.raises(ValueError):
            phi_diag(0, -1, x)

    def test_mean_is_one_over_n(self):
        n = 4
        perms = list(permutations(range(n)))
        for i in range(n):
            for p in range(n):
                total = sum(1 for t in perms if t[i] == p)
                assert Fraction(total, len(perms)) == Fraction(1, n)
                got = sum(phi_diag(i, p, Permutation(list(t))) for t in perms)
                assert got == total


class TestOmega:
    def test_case_values_n5(self):
        i, j, p, q = 0, 1, 2, 3
        alpha_x = perm_with(5, {i: p, j: q})
        assert omega(OmegaKind.OMEGA1, i, j, p, q, alpha_x) == 2
        zeta_x = perm_with(5, {i: 0, j: 1})
        assert omega(OmegaKind.OMEGA2, i, j, p, q, zeta_x) == 1
        beta_x = perm_with(5, {i: q, j: p})
        assert omega(OmegaKind.OMEGA3, i, j, p, q, beta_x) == 1

    def test_validation(self):
        x = Permutation.identity(4)
        with pytest.raises(ValueError, match="differ"):
            omega(OmegaKind.OMEGA1, 1, 1, 0, 2, x)
        with pytest.raises(ValueError, match="differ"):
            omega(OmegaKind.OMEGA1, 0, 1, 2, 2, x)
        with pytest.raises(ValueError, match="range"):
            omega(OmegaKind.OMEGA1, 0, 4, 1, 2, x)

    # Range is checked first, index by index in the order i, j, p, q.
    @pytest.mark.parametrize("args, message", [
        ((0, 4, 1, 2), "index j=4 out of range 0..3"),
        ((-1, 1, 1, 2), "index i=-1 out of range 0..3"),
        ((1, 1, 4, 2), "index p=4 out of range 0..3"),
        ((0, 1, 2, 5), "index q=5 out of range 0..3"),
        ((1, 1, 0, 2), "positions i and j must differ"),
        ((1, 1, 2, 2), "positions i and j must differ"),
        ((0, 1, 2, 2), "targets p and q must differ"),
    ])
    @pytest.mark.parametrize("fn", [omega, omega_neighborhood_sum_oracle])
    def test_validation_messages(self, fn, args, message):
        with pytest.raises(ValueError) as exc:
            fn(OmegaKind.OMEGA2, *args, Permutation.identity(4))
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exactly_one_case_fires(self, n):
        for x in all_perms(n):
            for (i, j, p, q) in pair_tuples(n):
                xi, xj = x(i), x(j)
                cases = [
                    xi == p and xj == q,
                    xi == q and xj == p,
                    (xi == p) != (xj == q),
                    (xi == q) != (xj == p),
                    xi not in (p, q) and xj not in (p, q),
                ]
                assert sum(cases) == 1
                # the classifier itself asserts the same; exercise it, and
                # each kind's value is its parameter of that case
                case = _omega_case(i, j, p, q, x)
                assert case == cases.index(True)
                for kind in KINDS:
                    assert omega(kind, i, j, p, q, x) == omega_params(kind, n)[case]

    @pytest.mark.parametrize("n", [4, 5])
    def test_space_means_exhaustive(self, n):
        perms = all_perms(n)
        expected = {
            OmegaKind.OMEGA1: Fraction(-1),
            OmegaKind.OMEGA2: Fraction(n - 3, n - 1),
            OmegaKind.OMEGA3: Fraction(1),
        }
        for kind in KINDS:
            for (i, j, p, q) in pair_tuples(n):
                total = sum(omega(kind, i, j, p, q, x) for x in perms)
                assert Fraction(total, len(perms)) == expected[kind]
                assert expected[kind] == omega_mean(kind, n)

    def test_space_means_n6_sampled_tuples(self):
        n = 6
        perms = all_perms(n)
        rng = random.Random(17)
        tuples = rng.sample(pair_tuples(n), 10)
        for kind in KINDS:
            for (i, j, p, q) in tuples:
                total = sum(omega(kind, i, j, p, q, x) for x in perms)
                assert Fraction(total, len(perms)) == omega_mean(kind, n)


class TestOmegaNeighborSums:
    def test_zeta_case_closed_form(self):
        n, d = 6, neighborhood_size(6)
        i, j, p, q = 0, 1, 2, 3
        x = perm_with(n, {i: 4, j: 5})
        for kind in KINDS:
            a, b, g, e, z = omega_params(kind, n)
            assert omega_neighborhood_sum_oracle(kind, i, j, p, q, x) == (
                2 * g + 2 * e + (d - 4) * z
            )

    def test_alpha_case_hand_value(self):
        # n=5, first kind, case x(i)=p and x(j)=q:
        # (1-n) + 2(n-2)(-2) + (d-2n+3)(n-3) = -4 - 12 + 6 = -10
        i, j, p, q = 0, 1, 2, 3
        x = perm_with(5, {i: p, j: q})
        assert omega_neighborhood_sum_oracle(OmegaKind.OMEGA1, i, j, p, q, x) == -10
        literal = sum(omega(OmegaKind.OMEGA1, i, j, p, q, y) for y in x.neighbors())
        assert literal == -10

    def test_matches_enumeration_everywhere_n4(self):
        for x in all_perms(4):
            for kind in KINDS:
                for (i, j, p, q) in pair_tuples(4):
                    literal = sum(
                        omega(kind, i, j, p, q, y) for y in x.neighbors()
                    )
                    closed = omega_neighborhood_sum_oracle(kind, i, j, p, q, x)
                    assert closed == literal


class TestComponentEvaluators:
    def test_single_entry_weighted_rows_n5(self):
        n = 5
        i, j, p, q = 0, 1, 2, 3
        t = single_entry_tensor(n, i, j, p, q)
        # condition x(i)=p and x(j)=q
        x = perm_with(n, {i: p, j: q})
        assert component_value_ref(t, 1, x) == Fraction(1, 5)
        assert component_value_ref(t, 2, x) == Fraction(1, 3)
        assert component_value_ref(t, 3, x) == Fraction(7, 15)
        assert decompose(t, x).total == 1
        # condition x(i)=q and x(j)=p
        x = perm_with(n, {i: q, j: p})
        assert component_value_ref(t, 1, x) == Fraction(1 - n, 2 * n)
        assert component_value_ref(t, 2, x) == Fraction(n - 3, 2 * (n - 2))
        assert component_value_ref(t, 3, x) == Fraction(1, n * (n - 2))
        assert decompose(t, x).total == 0
        # one-sided conditions and the all-miss condition
        x = perm_with(n, {i: p, j: 0})
        assert decompose(t, x).total == 0
        x = perm_with(n, {i: q, j: 0})
        assert decompose(t, x) == (0, 0, 0, 0)
        x = perm_with(n, {i: 0, j: 1})
        assert component_value_ref(t, 2, x) == Fraction(1, 2 * (n - 2))
        assert decompose(t, x).total == 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_weighted_case_values_sum_to_indicator(self, n):
        for (i, j, p, q) in pair_tuples(n):
            for x in all_perms(n):
                total = sum(
                    Fraction(omega(kind, i, j, p, q, x), weight_denominator(kind, n))
                    for kind in KINDS
                )
                expected = 1 if (x(i) == p and x(j) == q) else 0
                assert total == expected

    def test_zero_tensor(self):
        t = GeneralTensor(zero_psi(4))
        for x in all_perms(4):
            assert decompose(t, x) == (0, 0, 0, 0)

    def test_structurally_dead_entries_contribute_zero(self):
        # i = j with p != q, and i != j with p = q, are zero for every
        # bijection and enter no component
        t = tensor_with(4, {(1, 1, 0, 2): 5, (0, 2, 3, 3): 7})
        for x in all_perms(4):
            assert t.fitness(x) == 0
            assert decompose(t, x) == (0, 0, 0, 0)

    def test_diagonal_entries_live_in_component_3(self):
        t = tensor_with(4, {(1, 1, 2, 2): 3})
        for x in all_perms(4):
            expected = 3 if x(1) == 2 else 0
            assert t.fitness(x) == expected
            trip = decompose(t, x)
            assert trip.c1 == 0 and trip.c2 == 0
            assert trip.c3 == expected

    def test_fast_equals_ref_n4_exhaustive(self):
        inst = seeded_instance(4, 23)
        t = GeneralTensor.from_qap(inst)
        for x in all_perms(4):
            for m in (1, 2, 3):
                assert component_value_fast(inst, m, x) == component_value_ref(t, m, x)

    def test_fast_equals_ref_n6_random(self):
        inst = seeded_instance(6, 8)
        t = GeneralTensor.from_qap(inst)
        for x in random_perms(6, 50, seed=81):
            for m in (1, 2, 3):
                assert component_value_fast(inst, m, x) == component_value_ref(t, m, x)

    def test_fast_zero_instance(self):
        inst = QapInstance([[0] * 4] * 4, [[0] * 4] * 4)
        x = Permutation.identity(4)
        assert decompose(inst, x) == (0, 0, 0, 0)

    def test_fast_rejects_tensor(self):
        t = single_entry_tensor(4, 0, 1, 2, 3)
        with pytest.raises(TypeError):
            component_value_fast(t, 1, Permutation.identity(4))

    def test_component_index_validation(self):
        inst = seeded_instance(4, 1)
        with pytest.raises(ValueError):
            component_value_fast(inst, 0, Permutation.identity(4))
        with pytest.raises(ValueError):
            component_value_fast(inst, 4, Permutation.identity(4))


class TestDecompose:
    def test_sum_equals_fitness_seeded(self):
        inst = seeded_instance(5, 99)
        for x in random_perms(5, 20, seed=4):
            assert decompose(inst, x).total == inst.fitness(x)

    def test_sum_equals_fitness_float_mode(self):
        inst = seeded_instance(5, 99).as_float()
        for x in random_perms(5, 10, seed=4):
            t = decompose(inst, x)
            f = inst.fitness(x)
            assert t.total == pytest.approx(f, rel=1e-9)

    def test_tensor_route_sum(self):
        rng = random.Random(12)
        psi = [
            [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
            for _ in range(4)
        ]
        t = GeneralTensor(psi)
        for x in all_perms(4):
            assert decompose(t, x).total == t.fitness(x)


class TestAverages:
    def test_zero_instance(self):
        inst = QapInstance([[0] * 4] * 4, [[0] * 4] * 4)
        assert average_triple(inst) == (0, 0, 0, 0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_closed_form_matches_enumeration(self, n):
        inst = seeded_instance(n, 31)
        perms = all_perms(n)
        triples = [decompose(inst, x) for x in perms]
        for m in (1, 2, 3):
            enumerated = Fraction(sum(t[m - 1] for t in triples), len(perms))
            assert component_average(inst, m) == enumerated
        mean_f = Fraction(sum(inst.fitness(x) for x in perms), len(perms))
        assert average_triple(inst).total == mean_f

    def test_component2_average_vanishes_at_n3(self):
        inst = seeded_instance(3, 6)
        assert component_average(inst, 2) == 0
        perms = all_perms(3)
        enumerated = sum(decompose(inst, x).c2 for x in perms)
        assert enumerated == 0


class TestWaveEquation:
    def test_zero_instance(self):
        inst = QapInstance([[0] * 5] * 5, [[0] * 5] * 5)
        x = Permutation.identity(5)
        assert neighborhood_avg_wave(inst, x) == 0
        for m in (1, 2, 3):
            assert wave_predict_component(inst, m, x) == 0

    def test_formula_matches_brute_force(self):
        inst = seeded_instance(5, 77)
        d = neighborhood_size(5)
        for x in random_perms(5, 20, seed=3):
            brute = Fraction(sum(inst.fitness(y) for y in x.neighbors()), d)
            assert neighborhood_avg_wave(inst, x) == brute

    def test_constant_objective_instance(self):
        ones = [[1] * 4] * 4
        inst = QapInstance(ones, ones)
        d = neighborhood_size(4)
        for x in all_perms(4):
            f = inst.fitness(x)
            brute = Fraction(sum(inst.fitness(y) for y in x.neighbors()), d)
            assert brute == f
            assert neighborhood_avg_wave(inst, x) == f

    def test_component_prediction_matches_enumeration_n4(self):
        inst = seeded_instance(4, 13)
        d = neighborhood_size(4)
        perms = all_perms(4)
        triples = {x.mapping: decompose(inst, x) for x in perms}
        for x in perms:
            for m in (1, 2, 3):
                brute = (
                    sum(triples[y.mapping][m - 1] for y in x.neighbors())
                    * Fraction(1, d)
                )
                assert wave_predict_component(inst, m, x) == brute
