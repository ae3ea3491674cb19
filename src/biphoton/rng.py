"""Deterministic counter-based randomness for parallel Monte Carlo trials.

Every random number consumed anywhere in this package is a pure function of
``(master_seed, trial_index, draw_counter)``.  There is no sequential
generator state, so trials can be evaluated one by one, in vectorized
chunks, or on any number of threads, and the results are bit-identical.

Mapping (all arithmetic modulo 2**64)::

    h0 = splitmix(master_seed)
    h1 = splitmix(h0 ^ trial_index)
    h  = splitmix(h1 ^ draw_counter)
    u  = (h >> 11) * 2.0**-53          # top 53 bits, uniform on [0, 1)

``splitmix`` is one splitmix64 round (golden-ratio increment followed by
the xor-shift-multiply finalizer).  The float conversion keeps the top 53
bits of the 64-bit word so that u < 1 holds exactly; dividing the full
word by 2**64 can round up to 1.0 in IEEE-754 doubles.

Child experiments (the four CHSH setting pairs, the two order-test
benches, sweep rows) get independent master seeds from
:func:`derive_seed`, which keys the first round with a distinct salt so
child streams can never collide with trial draws.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xA5A5A5A5A5A5A5A5

_U64_11 = np.uint64(11)
_U64_27 = np.uint64(27)
_U64_30 = np.uint64(30)
_U64_31 = np.uint64(31)
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)


def splitmix(z: int) -> int:
    """One splitmix64 round of a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix_vec(z: np.ndarray) -> np.ndarray:
    z = z + _NP_GOLDEN
    z = (z ^ (z >> _U64_30)) * _NP_MIX1
    z = (z ^ (z >> _U64_27)) * _NP_MIX2
    return z ^ (z >> _U64_31)


def _seed_word(master_seed) -> int:
    """``master_seed`` as a 64-bit word, mod 2**64; bools and non-integers raise ValueError."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    return int(master_seed) & _MASK


def uniform_array(master_seed: int, trial_indices: np.ndarray, draw_counter: int) -> np.ndarray:
    """The uniform ``u`` of the module's mapping for each trial index, at one draw counter.

    uint64 wraparound is the intended modular arithmetic.
    """
    h0 = splitmix(_seed_word(master_seed))
    z = trial_indices.astype(np.uint64, copy=False) ^ np.uint64(h0)
    z = _splitmix_vec(z)
    z = z ^ np.uint64(draw_counter & _MASK)
    z = _splitmix_vec(z)
    return (z >> _U64_11).astype(np.float64) * 2.0**-53


def derive_seed(master_seed: int, stream: int) -> int:
    """Independent child seed for sub-experiment ``stream`` of a run."""
    return splitmix(splitmix(_seed_word(master_seed) ^ _STREAM_SALT) ^ (stream & _MASK))
