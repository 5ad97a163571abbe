"""The seeded streams behind every instance and walk, pinned to randrange.

generate_instance and random_walk draw their integers through
core._below, which filters one getrandbits stream at C speed. These tests
replay both with the plain randrange calls they stand for, so a change of
helper, of bit width or of CPython's randrange shows on every Python the
suite runs on.
"""

import random
from itertools import islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaplandscape import Permutation, generate_instance, random_walk
from qaplandscape import core, qaplib, spectral

from conftest import seeded_instance


def randrange_entries(n, seed, lo, hi):
    """The 2 n^2 entries of generate_instance(n, seed, lo, hi), row by row,
    r before w, as randrange draws them."""
    rng = random.Random(seed)
    return list(map(rng.randrange, repeat(lo, 2 * n * n), repeat(hi + 1)))


def randrange_walk(problem, steps, seed, x0=None):
    """The start and values of random_walk(problem, steps, seed, x0), each
    pair drawn by randrange, each step adding the same swap delta."""
    n = problem.n
    rng = random.Random(seed)
    start = Permutation.random(n, rng) if x0 is None else x0
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mapping = list(start.mapping)
    values = [problem.fitness(start)]
    for _ in range(steps):
        u, v = pairs[rng.randrange(len(pairs))]
        values.append(values[-1] + problem.swap_delta(mapping, u, v))
        mapping[u], mapping[v] = mapping[v], mapping[u]
    return start, values


def flat_entries(inst):
    return [v for row in (*inst.r, *inst.w) for v in row]


# Widths at, around and far from powers of two, where a wrong bit width
# changes which words are kept.
WIDTHS = [1, 2, 3, 7, 8, 9, 100, 255, 256, 257, 2**31, 2**32 - 1, 2**32,
          2**32 + 1, 10**200]


class TestGenerateStream:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 9),
        seed=st.integers(-2**40, 2**40),
        lo=st.integers(-10**6, 10**6),
        width=st.sampled_from(WIDTHS) | st.integers(1, 10**4),
    )
    def test_entries_are_the_randrange_draws(self, n, seed, lo, width):
        hi = lo + width - 1
        assert flat_entries(generate_instance(n, seed, lo, hi)) \
            == randrange_entries(n, seed, lo, hi)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_width(self, width):
        assert flat_entries(generate_instance(5, 11, -3, width - 4)) \
            == randrange_entries(5, 11, -3, width - 4)

    def test_off_by_one_bit_width_is_caught(self, monkeypatch):
        # A helper that draws one bit wider keeps the same range of values
        # but other stream words, so the replay must tell them apart.
        def wider(rng, width, count):
            k = width.bit_length() + 1
            return islice(filter(width.__gt__, map(rng.getrandbits, repeat(k))), count)

        monkeypatch.setattr(qaplib, "_below", wider)
        assert all(
            flat_entries(generate_instance(4, seed, 0, 99))
            != randrange_entries(4, seed, 0, 99)
            for seed in range(5)
        )


class TestWalkStream:
    @pytest.mark.parametrize("n", range(3, 25))
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_start_and_values_are_the_randrange_replay(self, n, mode):
        inst = seeded_instance(n, n, hi=99)
        if mode == "float":
            inst = inst.as_float()
        series = random_walk(inst, 300, seed=n + 1)
        start, values = randrange_walk(inst, 300, n + 1)
        assert series.start == start
        assert list(series.values) == values

    def test_given_start_is_kept(self):
        inst = seeded_instance(6, 2).as_float()
        x0 = Permutation([5, 4, 3, 2, 1, 0])
        series = random_walk(inst, 100, seed=8, x0=x0)
        assert (series.start, list(series.values)) == randrange_walk(inst, 100, 8, x0)

    def test_off_by_one_bit_width_is_caught(self, monkeypatch):
        def narrower(rng, width, count):
            k = width.bit_length() - 1
            return islice(filter(width.__gt__, map(rng.getrandbits, repeat(k))), count)

        monkeypatch.setattr(spectral, "_below", narrower)
        inst = seeded_instance(6, 3)
        assert list(random_walk(inst, 200, seed=4).values) \
            != randrange_walk(inst, 200, 4)[1]


def test_helper_matches_randrange_draw_for_draw():
    for width in WIDTHS:
        a, b = random.Random(width), random.Random(width)
        assert list(core._below(a, width, 50)) == [b.randrange(width) for _ in range(50)]
        # The same stream words are consumed: the generators stay in step.
        assert a.getstate() == b.getstate()
