"""Property test: strict RAK run level by level equals the per-vertex kernel.

The oracle is `_rak` fed Python lists with one worker's scratch rows, the
per-vertex source that numba compiles; the level path is called directly,
so it is checked whichever backend `rak_detect` picks.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import rak  # noqa: E402
from labelprop._backend import CHUNK  # noqa: E402

_kernel = getattr(rak._rak, "py_func", rak._rak)


def oracle(graph, order, tolerance, max_iterations):
    n = graph.vertex_count
    labels = list(range(n))
    iterations = _kernel(
        graph.offsets.tolist(), graph.neighbors.tolist(), graph.weights.tolist(), labels,
        order.tolist(), True, tolerance, max_iterations, [[1]], [1], [[0.0] * n], [[0] * n],
        CHUNK,
    )
    return labels, iterations


def levels(graph, order, tolerance, max_iterations):
    labels = np.arange(graph.vertex_count, dtype=np.int64)
    iterations = rak._rak_levels(rak._level_plan(graph, order), labels, tolerance, max_iterations)
    return labels.tolist(), iterations


# Unit weights, small integers, and tenths whose float sums depend on the
# order they are added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
WEIGHTS = {
    "unit": st.just(1.0),
    "integer": st.integers(1, 4).map(float),
    "tenths": st.sampled_from([0.1, 0.2, 0.3]),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 4 * n))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    u, v = draw(ids), draw(ids)
    w = draw(st.lists(WEIGHTS[kind], min_size=m, max_size=m))
    graph = lp.preprocess(
        lp.from_arcs(n, u, v, w),
        unit_weights=kind == "unit",
        self_loops=draw(st.booleans()),  # off: vertices may have no arcs at all
    )
    seed = draw(st.integers(0, 2**32 - 1))
    tolerance = draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]))
    max_iterations = draw(st.integers(1, 12))
    return graph, rak.shuffled_indices(n, seed), tolerance, max_iterations


@settings(max_examples=300, deadline=None)
@given(cases())
def test_levels_match_the_sequential_kernel(case):
    assert levels(*case) == oracle(*case)
