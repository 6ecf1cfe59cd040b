"""Deterministic xorshift32 random numbers.

Every randomized code path (non-strict tie breaking, random best-label
fallbacks, speaker draws) pulls from this generator, so a run is fully
reproducible from one 32-bit seed.  The step is Marsaglia's classic
triple shift (13, 17, 5 on 32 bits, wrapping); the advanced state is the
output.  Bounded draws use plain modulo reduction -- the bias is at most
``n / 2**32``, negligible for the bounds used here, and fixing a single
reduction rule keeps sequences comparable across implementations.

States are carried in int64 arrays (one slot per worker), or in lists of
Python ints when the kernels run interpreted, so the same functions work
inside compiled kernels and in plain Python; all arithmetic is masked
back to 32 bits explicitly.
"""

from __future__ import annotations

import numpy as np

from ._backend import kernel_args, njit

_MASK = 0xFFFFFFFF

# Seeding with 0 would freeze the generator (0 maps to 0), so it is replaced
# by this fixed constant: the example seed from Marsaglia's paper.
ZERO_SEED_REPLACEMENT = 2463534242


@njit(cache=True)
def xs32_next(state):
    """Advance one step and return the new state (which is the output)."""
    x = state & _MASK
    x = (x ^ (x << 13)) & _MASK
    x = x ^ (x >> 17)
    x = (x ^ (x << 5)) & _MASK
    return x


@njit(cache=True)
def draw_bounded(states, slot, n):
    """Draw an integer in [0, n) from states[slot], advancing it in place."""
    x = xs32_next(states[slot])
    states[slot] = x
    return x % n


@njit(cache=True)
def mix_seed(seed, k):
    """Derive worker k's starting state from the global seed.

    Multiply-xor-shift avalanche (the murmur3 finalizer) over
    ``seed + k * 0x9E3779B9`` so that nearby worker indices land on
    unrelated points of the cycle.  Never returns 0.
    """
    x = (seed + k * 0x9E3779B9) & _MASK
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & _MASK
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & _MASK
    x ^= x >> 16
    if x == 0:
        x = ZERO_SEED_REPLACEMENT
    return x


def worker_states(seed: int, workers: int) -> np.ndarray:
    """Independent per-worker states; worker k starts at mix_seed(seed, k).

    Each state slot is owned by exactly one worker and must never be shared.
    """
    states = np.empty(workers, dtype=np.int64)
    for k in range(workers):
        states[k] = mix_seed(int(seed) & _MASK, k)
    return states


# Stream index for visit-order shuffles; far above any real worker index so
# the order stream never collides with a worker stream.
_ORDER_STREAM = 0x4F524452


@njit(cache=True)
def _fisher_yates(order, states):
    for i in range(len(order) - 1, 0, -1):
        j = draw_bounded(states, 0, i + 1)
        order[i], order[j] = order[j], order[i]


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Seed-determined permutation of range(n), stable across backends."""
    order, states = kernel_args(
        np.arange(n, dtype=np.int64),
        np.array([mix_seed(int(seed) & _MASK, _ORDER_STREAM)], dtype=np.int64),
    )
    _fisher_yates(order, states)
    return np.asarray(order, dtype=np.int64)


class XorShift32:
    """Single-stream generator for sequential use and tests."""

    def __init__(self, seed: int):
        s = int(seed) & _MASK
        if s == 0:
            s = ZERO_SEED_REPLACEMENT
        self._state = np.array([s], dtype=np.int64)

    @property
    def state(self) -> int:
        return int(self._state[0])

    def next(self) -> int:
        """Next 32-bit value; also the new state."""
        x = xs32_next(self._state[0])
        self._state[0] = x
        return int(x)

    def next_bounded(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by modulo reduction."""
        if n < 1:
            raise ValueError("bound must be a positive integer")
        return int(draw_bounded(self._state, 0, n))
