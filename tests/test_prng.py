import numpy as np
import pytest

from helpers import stream_row
from labelprop.prng import (
    _ORDER_STREAM,
    ZERO_SEED_REPLACEMENT,
    mix_seed,
    next_output,
    shuffled_indices,
    worker_states,
    xs32_next,
    xs32_stream,
)


def xorshift32_reference(x: int) -> int:
    # independent big-int evaluation of the triple shift
    x &= 0xFFFFFFFF
    x = (x ^ (x << 13)) & 0xFFFFFFFF
    x ^= x >> 17
    x = (x ^ (x << 5)) & 0xFFFFFFFF
    return x


def draws(state: int, count: int) -> list:
    """The first ``count`` reads of a stream row after ``state``, as a kernel worker reads."""
    row, cursors = stream_row(state)
    return [int(next_output(row, cursors, 0)) for _ in range(count)]


def test_first_step_from_seed_one():
    # 1 -> 8193 (after <<13 xor) -> 8193 (>>17 adds nothing) -> 270369
    assert draws(1, 1) == [270369]
    assert xorshift32_reference(1) == 270369


def test_matches_reference_on_varied_states():
    for seed in (1, 2, 12345, 0x80000000, 0xFFFFFFFF):
        got = draws(seed, 50)
        x = seed
        for value in got:
            x = xorshift32_reference(x)
            assert value == x


def test_same_seed_same_sequence():
    assert draws(99, 1000) == draws(99, 1000)


def test_no_zero_in_long_run():
    assert 0 not in draws(1, 100_000)


def test_no_state_repeat_short_horizon():
    x = 1
    seen = np.empty(100_000, dtype=np.int64)
    for i in range(seen.size):
        x = xs32_next(x)
        seen[i] = x
    assert np.unique(seen).size == seen.size


def test_bounded_draw_basics():
    # a draw in [0, n) is the next output modulo n
    assert draws(1, 1)[0] % 1 == 0
    # first draw from seed 1 is 270369, so 270369 % 10
    assert draws(1, 1)[0] % 10 == 9
    hits = set(x % 4 for x in draws(7, 100_000))
    assert hits == {0, 1, 2, 3}


def test_zero_seed_is_replaced():
    # seed 0 of worker 0 mixes to state 0, on which xorshift32 would stay
    state = mix_seed(0, 0)
    assert state == ZERO_SEED_REPLACEMENT
    assert draws(state, 1) != [0]


def test_worker_states_distinct_and_nonzero():
    states = worker_states(1, 64)
    assert (states != 0).all()
    assert np.unique(states).size == states.size
    # a different global seed moves every stream
    other = worker_states(2, 64)
    assert (states != other).all()


def test_mix_seed_matches_pure_python_reference():
    def ref(seed, k):
        x = (seed + k * 0x9E3779B9) & 0xFFFFFFFF
        x ^= x >> 16
        x = (x * 0x85EBCA6B) & 0xFFFFFFFF
        x ^= x >> 13
        x = (x * 0xC2B2AE35) & 0xFFFFFFFF
        x ^= x >> 16
        return x or ZERO_SEED_REPLACEMENT

    for seed in (0, 1, 77, 0xFFFFFFFF):
        for k in (0, 1, 11, 4096):
            assert mix_seed(seed, k) == ref(seed, k)


def test_shuffled_indices_is_a_seeded_permutation():
    order = shuffled_indices(1000, 5)
    assert np.array_equal(np.sort(order), np.arange(1000))
    assert np.array_equal(order, shuffled_indices(1000, 5))
    assert not np.array_equal(order, shuffled_indices(1000, 6))


def fisher_yates(n: int, seed: int) -> list:
    """The shuffle as a plain loop: position i, from n - 1 down to 1, swaps
    with the next draw of the order stream modulo i + 1."""
    draws = xs32_stream(mix_seed(seed & 0xFFFFFFFF, _ORDER_STREAM), n - 1).tolist()
    order = list(range(n))
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = draws[k] % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_shuffled_indices_of_tiny_ranges_match_the_loop(n, seed):
    assert shuffled_indices(n, seed).tolist() == fisher_yates(n, seed)


def test_shuffled_indices_match_the_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(0, 5000), st.integers(-2**63, 2**63 - 1))
    def check(n, seed):
        order = shuffled_indices(n, seed)
        assert order.dtype == np.int64
        assert order.tolist() == fisher_yates(n, seed)

    check()
