"""Counter-based RNG: determinism, scalar/vector agreement, uniformity."""

import math

import numpy as np
import pytest

from biphoton.rng import derive_seed, uniform_array
from oracles import draw_u64, draw_uniform

SEEDS = [0, 1, 42, 2**63 - 1, 2**64 - 1, -1, -987654321]


def test_draw_u64_is_deterministic():
    a = draw_u64(1234, 56, 7)
    b = draw_u64(1234, 56, 7)
    assert a == b
    assert isinstance(a, int)
    assert 0 <= a < 2**64


def test_distinct_counters_give_distinct_words():
    words = {draw_u64(99, 0, c) for c in range(64)}
    assert len(words) == 64


def test_distinct_trials_give_distinct_words():
    words = {draw_u64(99, t, 0) for t in range(64)}
    assert len(words) == 64


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_range_half_open(seed):
    for trial in range(200):
        u = draw_uniform(seed, trial, 0)
        assert 0.0 <= u < 1.0


def test_uniform_is_top_53_bits():
    # u must be k * 2**-53 for integer k, so u * 2**53 is exact.
    for trial in range(200):
        u = draw_uniform(7, trial, 1)
        scaled = u * 2.0**53
        assert scaled == math.floor(scaled)


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_matches_scalar(seed):
    # one multi-counter call: every k against the scalar oracle's top 53 bits
    rng = np.random.default_rng(abs(seed) + 3)
    trials = rng.integers(0, 2**64, size=257, dtype=np.uint64)
    counters = (5, 0, 1, -1)
    draws = uniform_array(seed, trials, counters)
    assert draws.dtype == np.uint64 and draws.shape == (len(counters), len(trials))
    for row, counter in zip(draws, counters):
        ref = np.array([draw_u64(seed, int(t), counter) >> 11 for t in trials], dtype=np.uint64)
        np.testing.assert_array_equal(row, ref)


def test_vector_matches_scalar_contiguous_range():
    trials = np.arange(1000, dtype=np.uint64)
    (vec,) = uniform_array(31337, trials, (0,))
    ref = np.array([draw_u64(31337, t, 0) >> 11 for t in range(1000)], dtype=np.uint64)
    np.testing.assert_array_equal(vec, ref)


def test_draws_fill_the_given_rows():
    # the draws land in the caller's rows; the last row is scratch
    trials = np.arange(10, 310, dtype=np.uint64)
    out = np.full((3, len(trials)), 7, dtype=np.uint64)
    draws = uniform_array(99, trials, (0, 1), out)
    for c in (0, 1):
        assert np.shares_memory(draws[c], out[c])
        ref = np.array([draw_u64(99, int(t), c) >> 11 for t in trials], dtype=np.uint64)
        np.testing.assert_array_equal(out[c], ref)
        assert np.all(out[c] < 2**53)


@pytest.mark.parametrize("counters", [(0,), (0, 1), (3, 0, 1)])
def test_indices_in_the_h1_row_hash_in_place(counters):
    # the trial indices may sit in the row that becomes h1, the last draw's
    trials = np.arange(2**64 - 150, 2**64 - 1, dtype=np.uint64)
    want = uniform_array(17, trials, counters)
    out = np.empty((len(counters) + 1, len(trials)), dtype=np.uint64)
    out[len(counters) - 1] = trials
    draws = uniform_array(17, out[len(counters) - 1], counters, out)
    np.testing.assert_array_equal(draws, want)


def test_uniformity_chi_square_16_bins():
    n = 100_000
    bins = 16
    (k,) = uniform_array(2024, np.arange(n, dtype=np.uint64), (0,))
    # the top 4 of the 53 bits: u * 16 rounded down
    counts = np.bincount((k >> np.uint64(49)).astype(np.int64), minlength=bins)
    expected = n / bins
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    # df = 15: mean 15, sd sqrt(30); stay within 3 sigma.
    assert chi2 < 15.0 + 3.0 * math.sqrt(30.0)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    streams = {derive_seed(5, k) for k in range(32)}
    assert len(streams) == 32
    assert derive_seed(5, 0) != derive_seed(6, 0)

