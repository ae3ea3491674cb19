"""Deterministic counter-based randomness for parallel Monte Carlo trials.

Every random number consumed anywhere in this package is a pure function of
``(master_seed, trial_index, draw_counter)``.  There is no sequential
generator state, so trials can be evaluated one by one, in vectorized
chunks, or on any number of threads, and the results are bit-identical.

Mapping (all arithmetic modulo 2**64)::

    h0 = splitmix(master_seed)
    h1 = splitmix(h0 ^ trial_index)
    h  = splitmix(h1 ^ draw_counter)
    k  = h >> 11                       # the draw: top 53 bits, an integer in [0, 2**53)
    u  = k / 2**53                     # uniform on [0, 1), exact in IEEE-754 doubles

``splitmix`` is one splitmix64 round (golden-ratio increment followed by
the xor-shift-multiply finalizer).  :func:`uniform_array` returns the
integer draws ``k``: a model compares ``u < p`` as ``k < ceil(p * 2**53)``,
which is exact because ``u`` is ``k`` scaled by a power of two.  Keeping
the top 53 bits makes ``u < 1`` hold exactly; dividing the full word by
2**64 can round up to 1.0 in IEEE-754 doubles.  ``h1`` depends only on the
trial, so a trial's draws at several counters share one round for it.

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


def _u64(value: int) -> np.ndarray:
    """``value`` mod 2**64 as a 0-d uint64 array, an operand that no caller writes to.

    A ufunc takes a 0-d array as it is, while it converts a numpy scalar
    or a Python int operand to an array on every call.  The hashing makes
    about 30 ufunc calls per chunk, and at one-chunk sizes their fixed
    cost is a large share of its time.
    """
    return np.array(value & _MASK, dtype=np.uint64)


_U64_11 = _u64(11)
_U64_27 = _u64(27)
_U64_30 = _u64(30)
_U64_31 = _u64(31)
_NP_GOLDEN = _u64(_GOLDEN)
_NP_MIX1 = _u64(_MIX1)
_NP_MIX2 = _u64(_MIX2)


def splitmix(z: int) -> int:
    """One splitmix64 round of a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix_into(out: np.ndarray, z: np.ndarray, scratch: np.ndarray) -> None:
    """One splitmix64 round of each word of ``z`` into ``out``, which may be ``z``; ``scratch`` is overwritten."""
    np.add(z, _NP_GOLDEN, out=out)
    for shift, mix in ((_U64_30, _NP_MIX1), (_U64_27, _NP_MIX2)):
        out ^= np.right_shift(out, shift, out=scratch)
        out *= mix
    out ^= np.right_shift(out, _U64_31, out=scratch)


def _integer(value, what: str) -> int:
    """``value`` as a Python int; numpy integers count by value, a bool or a non-integer raises ValueError."""
    if type(value) is int:  # the common case; a bool's type is bool, not int
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _seed_word(master_seed) -> int:
    """``master_seed`` as a 64-bit word, mod 2**64."""
    return _integer(master_seed, "master_seed") & _MASK


def uniform_array(master_seed: int, trial_indices: np.ndarray, draw_counters, out=None):
    """The draws ``k`` of the module's mapping: one uint64 row per draw counter, one column per trial.

    Each trial index is hashed to ``h1`` once for all the counters.  ``out``
    is ``len(draw_counters) + 1`` uint64 rows of ``len(trial_indices)``
    words, written in place; without it a new 2-D array is made.  The first
    ``len(draw_counters)`` rows are returned and the last is scratch.
    ``trial_indices`` may be ``out``'s row ``len(draw_counters) - 1``, the
    row that holds ``h1``: the indices are then hashed in place.  uint64
    wraparound is the intended modular arithmetic.
    """
    n_draws = len(draw_counters)
    if out is None:
        out = np.empty((n_draws + 1, len(trial_indices)), dtype=np.uint64)
    scratch = out[n_draws]
    # h1 lives in the last draw's row, which is filled last
    h1 = out[n_draws - 1]
    np.bitwise_xor(
        trial_indices.astype(np.uint64, copy=False), _u64(splitmix(_seed_word(master_seed))), out=h1
    )
    _splitmix_into(h1, h1, scratch)
    for i, counter in enumerate(draw_counters):
        row = out[i]
        # counter 0 keys the round with h1 as it is
        keyed = np.bitwise_xor(h1, _u64(counter), out=row) if counter & _MASK else h1
        _splitmix_into(row, keyed, scratch)
        row >>= _U64_11
    return out[:n_draws]


def derive_seed(master_seed: int, stream: int) -> int:
    """Independent child seed for sub-experiment ``stream`` (an integer, mod 2**64) of a run."""
    return splitmix(splitmix(_seed_word(master_seed) ^ _STREAM_SALT) ^ (_integer(stream, "stream") & _MASK))
