import enum
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import (
    GeneralTensor,
    Permutation,
    QapInstance,
    average_triple,
    decompose,
    neighborhood_avg_brute,
    neighborhood_avg_wave,
)
from qaplandscape import decomposition
from qaplandscape.core import neighborhood_size
from qaplandscape.decomposition import (
    KIND_CONSTANTS,
    _sums,
    _tensor_sums,
    _omega_case,
    component_average,
    component_value_fast,
    component_value_ref,
    omega,
    omega_neighborhood_sum_oracle,
    wave_predict_component,
)
from qaplandscape.oracle import evaluate_points, space_points
from conftest import (
    all_perms,
    general_tensor,
    random_perms,
    rounded,
    seeded_instance,
    single_entry_tensor,
    tensor_with,
    two_decimal_tensor,
    zero_psi,
)
from five_case import (
    case_sum_mismatches,
    pair_tuples,
    space_mean_mismatches,
    sums_from_masses,
    tensor_case_totals,
)
from strategies import qap_instances, sparse_tensors

KINDS = [1, 2, 3]


def constants(m, n):
    return KIND_CONSTANTS[m](n)


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


class TestParameterTable:
    def test_vectors_at_n5(self):
        assert constants(1, 5).params == (2, -4, -2, 0, -1)
        assert constants(2, 5).params == (2, 2, 0, 0, 1)
        assert constants(3, 5).params == (7, 1, 3, 0, -1)

    def test_keyed_by_component_index(self):
        assert list(KIND_CONSTANTS) == [1, 2, 3]
        assert not any(
            isinstance(v, enum.EnumMeta) for v in vars(decomposition).values()
        )

    @pytest.mark.parametrize("n", range(3, 13))
    def test_constants(self, n):
        assert constants(1, n).k == 2 * n
        assert constants(2, n).k == 2 * (n - 1)
        assert constants(3, n).k == n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_weight_denominators(self, n):
        assert constants(1, n).den == 2 * n
        assert constants(2, n).den == 2 * (n - 2)
        assert constants(3, n).den == n * (n - 2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_irrep_dimensions_and_means(self, n):
        assert constants(1, n).dim == (n - 1) * (n - 2) // 2
        assert constants(2, n).dim == n * (n - 3) // 2
        assert constants(3, n).dim == n - 1
        # The action on ordered pairs i != j holds the trivial part once,
        # (n-1,1) twice and the other two parts once each.
        d1, d2, d3 = (constants(m, n).dim for m in KINDS)
        assert 1 + 2 * d3 + d2 + d1 == n * (n - 1)
        assert constants(1, n).mean == (-1, 1)
        assert constants(2, n).mean == (n - 3, n - 1)
        assert constants(3, n).mean == (1, 1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_wave_coefficients_reduce(self, n):
        d = neighborhood_size(n)
        assert Fraction(2 * n, d) == Fraction(4, n - 1)
        assert Fraction(2 * (n - 1), d) == Fraction(4, n)
        assert Fraction(n, d) == Fraction(2, n - 1)


# Every n in range, rather than a hypothesis sample of it.
@pytest.mark.parametrize("n", range(3, 41))
def test_table_weights_give_the_pair_indicator_and_rates_stay_in_bounds(n):
    rows = [constants(m, n) for m in KINDS]
    indicator = [sum(Fraction(row.params[case], row.den) for row in rows)
                 for case in range(5)]
    assert indicator == [1, 0, 0, 0, 0]
    d = neighborhood_size(n)
    for row in rows:
        assert Fraction(2, n - 1) <= Fraction(row.k, d) <= Fraction(4, n - 1)


@pytest.mark.parametrize("problems", [qap_instances(), sparse_tensors()],
                         ids=["instance", "tensor"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_components_add_up_to_the_objective(problems, data):
    problem = data.draw(problems)
    x = Permutation(data.draw(st.permutations(range(problem.n))))
    t = decompose(problem, x)
    assert t.c1 + t.c2 + t.c3 == problem.fitness(x)


# The product form's five sums, from flat dot products, against the same
# five read from the blocks of its tensor, exactly.
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_masses_equal_the_product_form_masses(data):
    inst = data.draw(qap_instances())
    x = Permutation(data.draw(st.permutations(range(inst.n))))
    assert _sums(GeneralTensor.from_qap(inst), x) == _sums(inst, x)


# The block pass against the literal classifier of tests/five_case.py, its
# case masses mapped to the five sums, exactly: on dense tensors not of
# product form, with negative entries and nonzero diagonals, in integers and
# in Fractions, and on sparse ones.
DENSE_TENSORS = st.builds(general_tensor, st.integers(3, 8), st.integers(0, 999),
                          st.sampled_from([None, (1, 2, 3), (3, 7)]))


@pytest.mark.parametrize("tensors", [DENSE_TENSORS, sparse_tensors(max_n=8)],
                         ids=["dense", "sparse"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_sums_equal_the_classifier_masses(tensors, data):
    tensor = data.draw(tensors)
    x = Permutation(data.draw(st.permutations(range(tensor.n))))
    assert _tensor_sums(tensor, x.mapping) == sums_from_masses(tensor_case_totals(tensor, x))


# Each float sum is one fsum over its entries: the correctly rounded exact
# sum of the float coefficients, and f_same is fitness bit for bit.
@pytest.mark.parametrize("n", range(3, 9))
def test_float_tensor_sums_are_the_rounded_exact_sums(n):
    tensor = two_decimal_tensor(n, n)
    twin = GeneralTensor([[[[Fraction(v) for v in row] for row in plane]
                           for plane in block] for block in tensor.psi])
    for x in random_perms(n, 5, n):
        sums = _tensor_sums(tensor, x.mapping)
        exact = _tensor_sums(twin, x.mapping)
        assert [v.hex() for v in sums] == [rounded(q).hex() for q in exact]
        assert sums[0].hex() == tensor.fitness(x).hex()


@pytest.mark.parametrize("problems", [qap_instances(max_n=6), sparse_tensors()],
                         ids=["instance", "tensor"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_component_wave_equation_matches_the_neighbor_mean(problems, data):
    problem = data.draw(problems)
    x = Permutation(data.draw(st.permutations(range(problem.n))))
    for m in KINDS:
        brute = neighborhood_avg_brute(lambda y: decompose(problem, y)[m - 1], x)
        assert wave_predict_component(problem, m, x) == brute


@pytest.mark.parametrize("problems", [
    qap_instances(max_n=5), sparse_tensors(max_n=5),
], ids=["instance", "tensor"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_form_means_match_enumeration(problems, data):
    problem = data.draw(problems)
    columns = evaluate_points(problem, space_points(problem.n))
    assert average_triple(problem) == tuple(Fraction(sum(c), len(c)) for c in columns)


def test_tensor_decompose_makes_one_pass(monkeypatch):
    calls = []

    def counted(tensor, mapping):
        calls.append(mapping)
        return _tensor_sums(tensor, mapping)

    monkeypatch.setattr(decomposition, "_tensor_sums", counted)
    t = GeneralTensor.from_qap(seeded_instance(5, 3))
    x = Permutation.identity(5)
    assert decompose(t, x).total == t.fitness(x)
    assert calls == [x.mapping]


class TestOmega:
    def test_case_values_n5(self):
        i, j, p, q = 0, 1, 2, 3
        alpha_x = perm_with(5, {i: p, j: q})
        assert omega(1, i, j, p, q, alpha_x) == 2
        zeta_x = perm_with(5, {i: 0, j: 1})
        assert omega(2, i, j, p, q, zeta_x) == 1
        beta_x = perm_with(5, {i: q, j: p})
        assert omega(3, i, j, p, q, beta_x) == 1

    def test_validation(self):
        x = Permutation.identity(4)
        with pytest.raises(ValueError, match="differ"):
            omega(1, 1, 1, 0, 2, x)
        with pytest.raises(ValueError, match="differ"):
            omega(1, 0, 1, 2, 2, x)
        with pytest.raises(ValueError, match="range"):
            omega(1, 0, 4, 1, 2, x)

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
            fn(2, *args, Permutation.identity(4))
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
                for m in KINDS:
                    assert omega(m, i, j, p, q, x) == constants(m, n).params[case]

    @pytest.mark.parametrize("n", [4, 5])
    def test_space_means_exhaustive(self, n):
        expected = {
            1: Fraction(-1),
            2: Fraction(n - 3, n - 1),
            3: Fraction(1),
        }
        for m in KINDS:
            assert expected[m] == Fraction(*constants(m, n).mean)
        assert space_mean_mismatches(n, pair_tuples(n)) == []

    def test_space_means_n6_sampled_tuples(self):
        tuples = random.Random(17).sample(pair_tuples(6), 10)
        assert space_mean_mismatches(6, tuples) == []


class TestOmegaNeighborSums:
    def test_zeta_case_closed_form(self):
        n, d = 6, neighborhood_size(6)
        i, j, p, q = 0, 1, 2, 3
        x = perm_with(n, {i: 4, j: 5})
        for m in KINDS:
            a, b, g, e, z = constants(m, n).params
            assert omega_neighborhood_sum_oracle(m, i, j, p, q, x) == (
                2 * g + 2 * e + (d - 4) * z
            )

    def test_alpha_case_hand_value(self):
        # n=5, first kind, case x(i)=p and x(j)=q:
        # (1-n) + 2(n-2)(-2) + (d-2n+3)(n-3) = -4 - 12 + 6 = -10
        i, j, p, q = 0, 1, 2, 3
        x = perm_with(5, {i: p, j: q})
        assert omega_neighborhood_sum_oracle(1, i, j, p, q, x) == -10
        literal = sum(omega(1, i, j, p, q, y) for y in x.neighbors())
        assert literal == -10

    def test_matches_enumeration_everywhere_n4(self):
        assert case_sum_mismatches(4, pair_tuples(4)) == []


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
                    Fraction(omega(m, i, j, p, q, x), constants(m, n).den)
                    for m in KINDS
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

    def test_ref_rejects_instance(self):
        with pytest.raises(TypeError):
            component_value_ref(seeded_instance(4, 1), 1, Permutation.identity(4))

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
