"""Property tests: the one-pass numpy parse and the line loop build the same graphs.

A comment line is valid in both formats but is rejected by the numpy parse,
so inserting one forces the line loop over otherwise identical text.
"""

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import graph as graph_module  # noqa: E402

WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.5, 2.5, 3.0, 1e-3, 1e3]),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def arc_lists(draw, max_vertex: int = 12):
    """Arcs over a few vertex ids, so duplicates and self-loops are common."""
    size = draw(st.integers(1, 30))
    ids = st.lists(st.integers(0, max_vertex), min_size=size, max_size=size)
    u, v = draw(ids), draw(ids)
    w = draw(st.lists(WEIGHTS, min_size=size, max_size=size))
    return u, v, w


def with_comment(text: str, marker: str, keep: int, position: int) -> str:
    """``text`` with a comment line inserted after the first ``keep`` lines plus ``position``."""
    lines = text.splitlines(keepends=True)
    at = keep + position % (len(lines) - keep + 1)
    return "".join(lines[:at] + [f"{marker} inserted comment\n"] + lines[at:])


def assert_same_graph(a: lp.Graph, b: lp.Graph) -> None:
    assert graph_module.graphs_equal(a, b)
    assert a.total_weight == b.total_weight


@settings(max_examples=100, deadline=None)
@given(arcs=arc_lists(), weighted=st.booleans(), position=st.integers(0, 1000))
def test_edge_list_paths_agree(arcs, weighted, position):
    u, v, w = arcs
    if not weighted:
        w = [1.0] * len(u)
    text = "".join(
        f"{a} {b} {c!r}\n" if weighted else f"{a} {b}\n" for a, b, c in zip(u, v, w)
    )
    assert graph_module._numeric_rows(io.StringIO(text), 3 if weighted else 2) is not None
    fast = lp.load_graph(io.StringIO(text), "edgelist")
    loop = lp.load_graph(io.StringIO(with_comment(text, "#", 0, position)), "edgelist")
    assert_same_graph(fast, loop)
    assert_same_graph(fast, lp.from_arcs(1 + max(u + v), u, v, w))


@settings(max_examples=100, deadline=None)
@given(
    arcs=arc_lists(),
    field=st.sampled_from(["pattern", "real", "integer"]),
    symmetry=st.sampled_from(["general", "symmetric"]),
    extra=st.integers(0, 3),
    position=st.integers(0, 1000),
)
def test_matrix_market_paths_agree(arcs, field, symmetry, extra, position):
    u, v, w = arcs
    if symmetry == "symmetric":  # lower triangle, as MatrixMarket stores it
        u, v = [max(a, b) for a, b in zip(u, v)], [min(a, b) for a, b in zip(u, v)]
    if field == "pattern":
        w = [1.0] * len(u)
    elif field == "integer":
        w = [float(1 + int(c) % 7) for c in w]
    n = 1 + max(u + v) + extra
    entries = "".join(
        f"{a + 1} {b + 1}\n" if field == "pattern"
        else f"{a + 1} {b + 1} {int(c) if field == 'integer' else repr(c)}\n"
        for a, b, c in zip(u, v, w)
    )
    text = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n{n} {n} {len(u)}\n{entries}"
    fast = lp.load_graph(io.StringIO(text), "mtx")
    loop = lp.load_graph(io.StringIO(with_comment(text, "%", 2, position)), "mtx")
    assert_same_graph(fast, loop)
    if symmetry == "symmetric":
        off = [a != b for a, b in zip(u, v)]
        u, v, w = (
            u + [b for b, o in zip(v, off) if o],
            v + [a for a, o in zip(u, off) if o],
            w + [c for c, o in zip(w, off) if o],
        )
    assert_same_graph(fast, lp.from_arcs(n, u, v, w))


@settings(max_examples=100, deadline=None)
@given(arcs=arc_lists(), unit_weights=st.booleans(), self_loops=st.booleans())
def test_preprocess_is_symmetric_and_idempotent(arcs, unit_weights, self_loops):
    u, v, w = arcs
    raw = lp.from_arcs(1 + max(u + v), u, v, w)
    once = lp.preprocess(raw, unit_weights=unit_weights, self_loops=self_loops)
    graph_module.check_symmetric(once)
    twice = lp.preprocess(once, unit_weights=unit_weights, self_loops=self_loops)
    assert_same_graph(once, twice)
    rows = graph_module.arc_rows(once)
    loops = np.bincount(rows[rows == once.neighbors], minlength=once.vertex_count)
    if self_loops:
        assert (loops == 1).all()
