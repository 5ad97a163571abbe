import math
import random
import re
from fractions import Fraction

import pytest

from qaplandscape import GeneralTensor, Permutation, QapInstance
from qaplandscape.core import (
    FLOAT_TOLERANCE, neighborhood_size, passes, tolerance, worst,
)
from conftest import all_perms, random_perms, seeded_instance, single_entry_tensor


class TestPassRule:
    def test_exact_mode_needs_a_zero_residual(self):
        assert tolerance(10**6, True) == 0
        assert passes(0, 10**6, True)
        assert passes(Fraction(0), 1, True)
        assert not passes(Fraction(1, 10**30), 10**6, True)

    def test_float_mode_scales_the_tolerance(self):
        assert tolerance(2.0, False) == 2 * FLOAT_TOLERANCE
        assert passes(2 * FLOAT_TOLERANCE, 2.0, False)
        assert not passes(3 * FLOAT_TOLERANCE, 2.0, False)

    @pytest.mark.parametrize("residual, scale", [
        (math.nan, 1.0), (0.0, math.inf), (math.inf, math.inf), (math.nan, math.inf),
    ])
    def test_fails_closed(self, residual, scale):
        assert not passes(residual, scale, False)


class TestWorst:
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_nan_difference_is_kept(self, at):
        pairs = [(1.0, 1.0), (2.0, 2.5), (3.0, 3.0)]
        pairs[at] = (math.nan, 1.0)
        # A later, larger finite difference does not replace the NaN.
        residual, scale = worst(pairs + [(100.0, 0.0)])
        assert math.isnan(residual)
        assert scale == 100.0
        assert not passes(residual, scale, False)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_an_infinite_value_never_passes(self, value):
        pairs = [(1.0, 1.0), (value, 2.0)]
        residual, scale = worst(pairs)
        assert scale == math.inf
        assert not passes(*worst(pairs), False)
        assert not passes(*worst([(value, value)]), False)

    def test_zero_residual_keeps_the_values_arithmetic(self):
        residual, _ = worst([(0.5, 0.5), (2.0, 2.0)])
        assert type(residual) is float and residual == 0.0
        assert str(residual) == "0.0"
        residual, _ = worst([(Fraction(1, 3), Fraction(1, 3)), (2, 2)])
        assert type(residual) is not float and residual == 0
        assert str(residual) == "0"
        assert worst([]) == (0.0, 1)

    def test_residual_is_the_largest_difference(self):
        assert worst([(1, 2), (Fraction(7, 2), 1), (0, -2)])[0] == Fraction(5, 2)
        assert worst([(0.25, 1.0), (3.0, 3.0)])[0] == 0.75

    def test_scale_is_the_largest_magnitude(self):
        assert worst([(0.5, -0.25)]) == (0.75, 1)
        assert worst([(0.5, -0.25)], scale=Fraction(1, 4))[1] == 0.5
        assert worst([(3.0, -7.0), (2.0, 1.0)], scale=5) == (10.0, 7.0)
        assert worst([(3.0, 2.0)], scale=50) == (1.0, 50)
        # A NaN magnitude is ignored.
        assert worst([(math.nan, -4.0)], scale=2)[1] == 4.0


class TestPermutation:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Permutation([0, 1])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation([0, 1, 3])

    def test_rejects_bool_entries(self):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation([True, False, 2])

    def test_identity_and_call(self):
        x = Permutation.identity(4)
        assert x.mapping == (0, 1, 2, 3)
        assert x(2) == 2

    def test_random_is_seeded(self):
        a = Permutation.random(6, random.Random(9))
        b = Permutation.random(6, random.Random(9))
        assert a == b

    def test_swap_examples(self):
        assert Permutation.identity(3).swap(0, 1).mapping == (1, 0, 2)
        assert Permutation([2, 0, 1]).swap(1, 2).mapping == (2, 1, 0)

    def test_swap_is_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            x = Permutation.random(6, rng)
            u, v = rng.sample(range(6), 2)
            y = x.swap(u, v)
            assert y != x
            assert y.swap(u, v) == x
            assert sorted(y.mapping) == list(range(6))

    def test_swap_leaves_original_untouched(self):
        x = Permutation.identity(3)
        x.swap(0, 2)
        assert x.mapping == (0, 1, 2)

    def test_swap_errors(self):
        x = Permutation.identity(3)
        with pytest.raises(ValueError):
            x.swap(1, 1)
        with pytest.raises(ValueError):
            x.swap(0, 3)
        with pytest.raises(ValueError):
            x.swap(-1, 2)

    @pytest.mark.parametrize("u, v", [(1, 1), (0, 3), (-1, 2)])
    def test_swap_refuses_with_the_swap_delta_message(self, u, v):
        x = Permutation.identity(3)
        inst = seeded_instance(3, 0)
        with pytest.raises(ValueError) as delta:
            inst.swap_delta(x.mapping, u, v)
        with pytest.raises(ValueError, match=re.escape(str(delta.value))):
            x.swap(u, v)


class TestNeighbors:
    def test_count(self):
        assert len(list(Permutation.identity(3).neighbors())) == 3
        assert len(list(Permutation.identity(10).neighbors())) == 45
        assert neighborhood_size(10) == 45

    def test_distinct_and_one_swap_away(self):
        x = Permutation([3, 1, 0, 2, 4])
        seen = set()
        for y in x.neighbors():
            assert y != x
            assert y.mapping not in seen
            seen.add(y.mapping)
            differing = [i for i in range(5) if y(i) != x(i)]
            assert len(differing) == 2
            i, j = differing
            assert y(i) == x(j) and y(j) == x(i)

    def test_lexicographic_pair_order(self):
        x = Permutation.identity(4)
        expected = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        got = []
        for y in x.neighbors():
            diff = tuple(i for i in range(4) if y(i) != x(i))
            got.append(diff)
        assert got == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetry(self, n):
        perms = all_perms(n)
        neighbor_sets = {
            x.mapping: {y.mapping for y in x.neighbors()} for x in perms
        }
        for x in perms:
            for y in perms:
                assert (y.mapping in neighbor_sets[x.mapping]) == (
                    x.mapping in neighbor_sets[y.mapping]
                )


class TestQapInstance:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QapInstance([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            QapInstance([[0] * 3] * 3, [[0] * 3] * 2)
        with pytest.raises(ValueError):
            QapInstance([[0, 1, 2], [0, 1], [0, 1, 2]], [[0] * 3] * 3)

    def test_mode_detection(self):
        exact = QapInstance([[1, 2, 3]] * 3, [[4, 5, 6]] * 3)
        assert exact.exact
        floaty = QapInstance([[1.0, 2, 3]] * 3, [[4, 5, 6]] * 3)
        assert not floaty.exact
        assert all(isinstance(v, float) for row in floaty.w for v in row)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QapInstance([[1, 2, 3], [4, bad, 6], [7, 8, 9]], [[1] * 3] * 3)
        with pytest.raises(ValueError, match="finite"):
            QapInstance([[1.5] * 3] * 3, [[1, 2, 3]] * 2 + [[1, 2, bad]])
        psi = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
        psi[2][1][0][2] = bad
        with pytest.raises(ValueError, match="finite"):
            GeneralTensor(psi)

    def test_rejects_bool_entries(self):
        # A bool is an int, but serialize_qaplib cannot write it back.
        with pytest.raises(ValueError, match="must be numbers, got True"):
            QapInstance([[True, 0, 0], [0, 1, 0], [0, 0, 1]], [[1] * 3] * 3)
        with pytest.raises(ValueError, match="must be numbers, got False"):
            QapInstance([[1] * 3] * 3, [[1.5] * 3] * 2 + [[1, False, 2]])
        psi = [[[[0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
        psi[0][1][2][0] = True
        with pytest.raises(ValueError, match="must be numbers, got True"):
            GeneralTensor(psi)

    def test_as_float(self):
        inst = seeded_instance(4, 1)
        f = inst.as_float()
        assert not f.exact
        assert f.r[0][0] == float(inst.r[0][0])

    def test_fitness_zero_matrices(self):
        inst = QapInstance([[0] * 3] * 3, [[0] * 3] * 3)
        for x in all_perms(3):
            assert inst.fitness(x) == 0

    def test_fitness_diagonal_identity_like(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        inst = QapInstance(eye, eye)
        for x in all_perms(3):
            assert inst.fitness(x) == 3

    def test_fitness_matches_double_loop_oracle(self):
        inst = seeded_instance(4, 42)
        for x in [Permutation.identity(4)] + random_perms(4, 10, seed=7):
            expected = sum(
                inst.r[i][j] * inst.w[x(i)][x(j)]
                for i in range(4)
                for j in range(4)
            )
            assert inst.fitness(x) == expected

    def test_fitness_dimension_mismatch(self):
        inst = seeded_instance(4, 1)
        with pytest.raises(ValueError, match="size"):
            inst.fitness(Permutation.identity(5))


class TestGeneralTensor:
    def test_zero_tensor_fitness(self):
        t = single_entry_tensor(3, 0, 1, 0, 1, value=0)
        for x in all_perms(3):
            assert t.fitness(x) == 0

    def test_single_entry_indicator(self):
        t = single_entry_tensor(4, 0, 1, 2, 3)
        for x in all_perms(4):
            expected = 1 if (x(0) == 2 and x(1) == 3) else 0
            assert t.fitness(x) == expected

    def test_from_qap_entries(self):
        inst = seeded_instance(4, 11)
        t = GeneralTensor.from_qap(inst)
        assert t.psi[1][2][0][3] == inst.r[1][2] * inst.w[0][3]
        for i in range(4):
            for j in range(4):
                for p in range(4):
                    for q in range(4):
                        assert t.psi[i][j][p][q] == inst.r[i][j] * inst.w[p][q]

    def test_from_qap_all_ones(self):
        ones = [[1] * 3] * 3
        t = GeneralTensor.from_qap(QapInstance(ones, ones))
        assert all(
            v == 1
            for block in t.psi for plane in block for row in plane for v in row
        )

    def test_product_form_fitness_agrees(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(3, 8)
            inst = seeded_instance(n, rng.randrange(10**6))
            t = GeneralTensor.from_qap(inst)
            x = Permutation.random(n, rng)
            assert t.fitness(x) == inst.fitness(x)

    def test_size_cap(self):
        inst = seeded_instance(33, 1)
        with pytest.raises(ValueError, match="32"):
            GeneralTensor.from_qap(inst)

    def test_shape_validation(self):
        bad = [[[[0] * 3] * 3] * 3] * 2
        with pytest.raises(ValueError):
            GeneralTensor(bad)

    def test_dimension_mismatch(self):
        t = single_entry_tensor(4, 0, 1, 2, 3)
        with pytest.raises(ValueError, match="size"):
            t.fitness(Permutation.identity(5))

    def test_exact_division_stays_rational(self):
        inst = seeded_instance(4, 2)
        x = Permutation.identity(4)
        from qaplandscape import decompose

        t = decompose(inst, x)
        assert all(
            isinstance(v, (int, Fraction)) for v in (t.c1, t.c2, t.c3, t.total)
        )
