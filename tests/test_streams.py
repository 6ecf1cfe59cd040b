"""Precomputed xorshift32 streams equal the sequential generator.

The reference is a loop of `xs32_next`, one step per output.  Lanes of
`xs32_stream` are powers of two long, so every lane boundary is a
multiple of a power of two; the counts below sit on and around them.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from labelprop import prng  # noqa: E402
from labelprop.prng import next_output, stream_rows, xs32_next, xs32_stream  # noqa: E402

STATES = (1, 0x80000000, 0xFFFFFFFF)
LONGEST = 100_003


def sequential(state, count):
    out = []
    for _ in range(count):
        state = xs32_next(state)
        out.append(state)
    return out


def lane_boundaries():
    counts = {0, 1, LONGEST}
    for e in range(1, 16):
        for base in (1 << e, 3 << e):
            counts.update((base - 1, base, base + 1))
    return sorted(c for c in counts if c <= LONGEST)


@pytest.fixture(scope="module")
def references():
    return {s: sequential(s, LONGEST) for s in STATES}


@pytest.mark.parametrize("state", STATES)
def test_stream_equals_sequential_steps(state, references):
    for count in lane_boundaries():
        got = xs32_stream(state, count)
        assert got.dtype == np.int64
        assert got.tolist() == references[state][:count], count



@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, 2**32 - 1), count=st.integers(0, 5000))
def test_stream_equals_sequential_steps_anywhere(state, count):
    assert xs32_stream(state, count).tolist() == sequential(state, count)


REFILLS = {"loop": prng._refill_loop, "lanes": prng._refill_lanes}


@pytest.mark.parametrize("refill", sorted(REFILLS))
@pytest.mark.parametrize("as_list", [True, False], ids=["list", "array"])
@settings(max_examples=50, deadline=None)
@given(state=st.integers(1, 2**32 - 1), size=st.integers(1, 300), reads=st.integers(0, 300))
def test_rows_read_the_sequence_whatever_the_refill(refill, as_list, state, size, reads):
    """Rows of any size read through `next_output` give the sequential
    outputs; an SLPA-style top-up in between changes nothing."""
    rows, cursors = stream_rows([state], size)
    row = rows[0]
    if as_list:
        row, cursors = row.tolist(), cursors.tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prng, "refill", REFILLS[refill])
        got = [int(next_output(row, cursors, 0)) for _ in range(reads)]
        if cursors[0] > 0:
            REFILLS[refill](row, cursors, 0)  # a top-up restarts from the last value read
        got += [int(next_output(row, cursors, 0)) for _ in range(size + 1)]
    assert got == sequential(state, reads + size + 1)


def test_a_fresh_row_reads_nothing_until_used():
    rows, cursors = stream_rows(np.array([7, 9], dtype=np.int64), 4)
    assert rows[:, -1].tolist() == [7, 9]
    assert cursors.tolist() == [4, 4]
