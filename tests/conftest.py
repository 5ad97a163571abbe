import random
from fractions import Fraction
from itertools import permutations

from qaplandscape import GeneralTensor, Permutation, QapInstance
from qaplandscape.decomposition import KIND_CONSTANTS
from qaplandscape.qaplib import generate_instance


def seeded_instance(n, seed, lo=0, hi=9):
    return generate_instance(n, seed, lo, hi)


def fraction_instance(n, seed):
    """Entries with mixed denominators, none of them all integers."""
    rng = random.Random(seed)

    def square():
        return [[Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12)))
                 for _ in range(n)] for _ in range(n)]

    r, w = square(), square()
    r[0][1] = Fraction(1, 5)
    w[1][0] = Fraction(-3, 4)
    return QapInstance(r, w)


def huge_instance(n, seed):
    """Integer entries of about 10**200, with both signs."""
    rng = random.Random(seed)

    def square():
        return [[rng.randint(-9, 9) * 10**200 + rng.randint(-9, 9)
                 for _ in range(n)] for _ in range(n)]

    return QapInstance(square(), square())


def all_perms(n):
    return [Permutation(list(t)) for t in permutations(range(n))]


def random_perms(n, count, seed):
    rng = random.Random(seed)
    return [Permutation.random(n, rng) for _ in range(count)]


def zero_psi(n):
    return [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def tensor_with(n, entries):
    """Tensor holding the given {(i, j, p, q): value} entries, zero elsewhere."""
    psi = zero_psi(n)
    for (i, j, p, q), v in entries.items():
        psi[i][j][p][q] = v
    return GeneralTensor(psi)


def single_entry_tensor(n, i, j, p, q, value=1):
    return tensor_with(n, {(i, j, p, q): value})


def perturb_kind(monkeypatch, m, column, change):
    """Replace one column of kind m's row of KIND_CONSTANTS by
    change(original value), for the rest of the test."""
    original = KIND_CONSTANTS[m]

    def perturbed(n):
        consts = original(n)
        return consts._replace(**{column: change(getattr(consts, column))})

    monkeypatch.setitem(KIND_CONSTANTS, m, perturbed)
