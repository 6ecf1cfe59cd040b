"""Property test: modularity depends on the partition, not on the community ids."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402


@st.composite
def renamed_partitions(draw):
    """A weighted graph, an assignment, and the assignment with its ids
    renamed by an injective map into ``[0, n)``."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(0, 3 * n))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    weights = st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.5]), min_size=m, max_size=m)
    graph = lp.preprocess(
        lp.from_arcs(n, draw(ids), draw(ids), draw(weights)),
        unit_weights=draw(st.booleans()),
        self_loops=draw(st.booleans()),
    )
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    used = np.unique(labels)
    targets = draw(st.lists(
        st.integers(0, n - 1), min_size=used.size, max_size=used.size, unique=True
    ))
    rename = dict(zip(used.tolist(), targets))
    return graph, labels, np.array([rename[x] for x in labels.tolist()])


@settings(max_examples=300, deadline=None)
@given(renamed_partitions())
def test_renaming_communities_leaves_q_unchanged(case):
    graph, labels, renamed = case
    assert lp.modularity(graph, renamed) == pytest.approx(lp.modularity(graph, labels), abs=1e-12)
