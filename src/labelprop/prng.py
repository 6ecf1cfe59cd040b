"""Deterministic xorshift32 random numbers.

Every randomized code path (non-strict tie breaking, random best-label
fallbacks, speaker draws, the visit-order shuffle) pulls from this
generator, so a run is fully reproducible from one 32-bit seed.  The
step is Marsaglia's classic triple shift (13, 17, 5 on 32 bits,
wrapping); the advanced state is the output.  Bounded draws use plain
modulo reduction -- the bias is at most ``n / 2**32``, negligible for the
bounds used here, and fixing a single reduction rule keeps sequences
comparable across implementations.

Draws read precomputed streams.  A stream row holds upcoming outputs of
one worker's sequence, and a cursor indexes the next unread one; a draw
in ``[0, n)`` is ``row[k] % n`` with the cursor then moved past ``k``.
`refill` regenerates the whole row from the last value read: that value
is the generator's state, so the row again holds the unread values first
and fresh ones after them.  A run therefore consumes exactly the outputs
that one sequential generator per worker gives, in the same order,
wherever the refills fall.  Interpreted, the row comes from
`xs32_stream`, which steps many jump-ahead lanes together in numpy;
compiled, `refill` is a plain loop.  The visit-order shuffle reads one
stream of ``n - 1`` values and runs in numpy on both backends: a
Fisher-Yates shuffle resolved by one sort and pointer jumping.

Rows are int64 arrays (one per worker), or lists of Python ints when the
kernels run interpreted, so the same functions work inside compiled
kernels and in plain Python; all arithmetic is masked back to 32 bits
explicitly.
"""

from __future__ import annotations

import functools

import numpy as np

from ._backend import JIT_ENABLED, njit
from .graph import _stable_order

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


_BITS = np.arange(32, dtype=np.uint32)


def _step(x):
    """xs32_next on a uint32 array (the shifts wrap at 32 bits)."""
    x ^= x << np.uint32(13)
    x ^= x >> np.uint32(17)
    x ^= x << np.uint32(5)
    return x


def _apply(columns, x):
    """The GF(2) matrix with these 32 columns times every state in ``x``."""
    bits = ((x[:, None] >> _BITS) & np.uint32(1)).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, columns, np.uint32(0)), axis=1)


@functools.cache
def _jump(power):
    """Columns of M^(2^power), M the matrix of one xorshift32 step."""
    if power == 0:
        columns = _step(np.uint32(1) << _BITS)
    else:
        half = _jump(power - 1)
        columns = _apply(half, half)
    columns.setflags(write=False)  # cached: every caller shares it
    return columns


def xs32_stream(state, count):
    """The next ``count`` outputs after ``state``, as an int64 array.

    Equal to ``count`` calls of `xs32_next`.  xorshift32 is linear over
    GF(2), so the k-th state after x is M^k x.  The stream is cut into
    lanes of 2^p steps; the lane starts come from ``state`` by the jumps
    M^(2^q), built on first use and cached, which double the lane count
    each time, and then all lanes step together in numpy (Haramoto et al.
    2008, "Efficient jump ahead for F2-linear random number generators").
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    # lanes of about count^(1/3) steps: each step and each jump is a few
    # numpy calls, whose fixed cost dominates at these sizes
    power = int(count).bit_length() // 3
    lanes = -(-count // (1 << power))
    x = np.array([state & _MASK], dtype=np.uint32)
    while x.size < lanes:
        x = np.concatenate([x, _apply(_jump(power + x.size.bit_length() - 1), x)])
    x = x[:lanes]
    block = np.empty((1 << power, lanes), dtype=np.uint32)
    for t in range(1 << power):
        block[t] = _step(x)
    return block.T.reshape(-1)[:count].astype(np.int64)


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


def _refill_loop(row, cursors, slot):
    x = row[cursors[slot] - 1]
    for i in range(len(row)):
        x = xs32_next(x)
        row[i] = x
    cursors[slot] = 0


def _refill_lanes(row, cursors, slot):
    row[:] = xs32_stream(row[cursors[slot] - 1], len(row)).tolist()
    cursors[slot] = 0


# refill(row, cursors, slot): regenerate the whole row from the last value
# read, ``row[cursors[slot] - 1]`` (the last output is the state), which
# gives the unread values first and then fresh ones; the cursor goes back
# to 0 and must be at least 1 before.  Compiled, a plain loop; interpreted,
# numpy lanes.
refill = njit(cache=True)(_refill_loop) if JIT_ENABLED else _refill_lanes


@njit(cache=True)
def next_output(row, cursors, slot):
    """The next unread value of a stream row; the row is refilled only when
    every value has been read."""
    k = cursors[slot]
    if k == len(row):
        refill(row, cursors, slot)
        k = 0
    cursors[slot] = k + 1
    return row[k]


def stream_rows(states, size):
    """(rows, cursors): one stream row of ``size`` values per state, all read.

    Row k ends with ``states[k]`` and its cursor is at the end, so its first
    read refills it with the outputs that follow the state.  The rows are
    fixed-capacity; a refill rewrites them in place.
    """
    rows = np.zeros((len(states), size), dtype=np.int64)
    rows[:, -1] = states
    return rows, np.full(len(states), size, dtype=np.int64)


# Stream index for visit-order shuffles; far above any real worker index so
# the order stream never collides with a worker stream.
_ORDER_STREAM = 0x4F524452


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Seed-determined permutation of range(n), stable across backends.

    The Fisher-Yates shuffle of ``range(n)`` that swaps position i with
    ``target[i] = stream[n - 1 - i] % (i + 1)`` for i from n - 1 down to
    1, computed without its loop (Shun et al. 2015, "Sequential random
    permutation, list contraction and tree contraction are highly
    parallel").  Step i fixes position i, which takes the value position
    ``target[i]`` holds just before it: ``target[i]`` itself unless a step
    done earlier, that is a larger step with the same target, moved
    another value there.  The nearest such step s put there the value
    position s held just before step s, which again is s unless a step
    larger than s targets s.  One sort of the targets gives both links,
    and pointer jumping follows the chains of the second to their ends.
    """
    target = np.zeros(n, dtype=np.int64)  # step 0, a no-op, targets 0
    draws = xs32_stream(mix_seed(int(seed) & _MASK, _ORDER_STREAM), n - 1)
    target[:0:-1] = draws % np.arange(n, 1, -1)
    steps, targets = _stable_order(target)  # the steps by target, then step
    position = np.arange(n)
    # the next larger step with the same target; the step itself if none
    later = position.copy()
    same = np.flatnonzero(targets[1:] == targets[:-1])
    later[steps[same]] = steps[same + 1]
    # the first step that targets a position, else the position.  A chain
    # starts at a step s = later[i] with target[s] = target[i] < s, and each
    # link leads to a step whose target is its predecessor, so no position
    # on a chain is targeted by its own step: each link goes to a larger step
    chain = position.copy()
    heads = np.flatnonzero(np.diff(targets, prepend=-1))
    chain[targets[heads]] = steps[heads]
    while True:  # each chain's end: the value its first position holds before its step
        jumped = chain[chain]
        if np.array_equal(jumped, chain):
            break
        chain = jumped
    return np.where(later != position, chain[later], target)
