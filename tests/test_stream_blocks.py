"""Successive stream blocks (`prng.xs32_blocks`) continue one sequence.

Each block's lanes start one jump by M^count after the last block's, so
blocks must join into the sequence of their total length.  The reference
is a loop of `xs32_next`, one step per output, as in ``test_streams.py``:
`xs32_stream` is the first block, so it cannot serve as the oracle.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from labelprop.prng import xs32_blocks, xs32_next  # noqa: E402


def joined(state, count, blocks):
    return [x for block in itertools.islice(xs32_blocks(state, count), blocks)
            for x in block.tolist()]


def sequential(state, count):
    out = []
    for _ in range(count):
        state = xs32_next(state)
        out.append(state)
    return out


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 511, 512, 513, 4096, 10_007])
def test_blocks_join_into_one_stream(count):
    assert joined(0x80000000, count, 4) == sequential(0x80000000, 4 * count)


@settings(max_examples=100, deadline=None)
@given(state=st.integers(0, 2**32 - 1), count=st.integers(0, 3000), blocks=st.integers(1, 5))
def test_blocks_join_into_one_stream_anywhere(state, count, blocks):
    assert joined(state, count, blocks) == sequential(state, blocks * count)
