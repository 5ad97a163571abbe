import random

import pytest

from qaplandscape.verification import (
    _pair_index_tuple,
    _pair_index_tuples,
    _sample_pair_index_tuples,
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
