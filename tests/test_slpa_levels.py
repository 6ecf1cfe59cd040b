"""Property tests: both strict SLPA paths equal a plain sequential SLPA.

The oracle is `test_slpa_oracle.oracle`, written from Xie, Szymanski &
Liu (2011) and sharing no code with the detector but the xorshift32 step.
Two strict paths are checked against it, whichever backend `slpa_detect`
would pick: the numpy rounds (`slpa._Rounds`, with ``JIT_ENABLED``
patched to False) and `_slpa` through the launch (patched to True), the
path compiled runs take.  The graphs have isolated vertices and vertices
whose only arc is a self-loop, both of which nobody speaks to, and
weights whose float sums depend on the order they are added in.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import slpa  # noqa: E402
from labelprop.result import Launch  # noqa: E402
from helpers import slpa_run  # noqa: E402
from test_slpa_oracle import WEIGHTS, oracle  # noqa: E402

PATHS = {"rounds": (False, slpa._Rounds), "launch": (True, Launch)}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 30))
    # vertices from `talking` on get no arcs to others; each may keep a self-loop
    talking = draw(st.integers(0, n))
    m = draw(st.integers(0, 4 * talking))
    ids = st.lists(st.integers(0, max(talking - 1, 0)), min_size=m, max_size=m)
    u, v = draw(ids), draw(ids)
    loops = [x for x in range(talking, n) if draw(st.booleans())]
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    w = draw(st.lists(WEIGHTS[kind], min_size=m + len(loops), max_size=m + len(loops)))
    # quiet vertices anywhere in the listening order, not only last
    relabel = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    ends = relabel[np.array(u + loops, dtype=np.int64)], relabel[np.array(v + loops, dtype=np.int64)]
    graph = lp.preprocess(
        lp.from_arcs(n, *ends, w),
        unit_weights=kind == "unit",
        self_loops=draw(st.booleans()),  # on: every vertex gets a self-loop
    )
    tolerance = draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, tolerance, seed


def strict_run(path, graph, memory_size, tolerance, seed, held=None):
    """(labels, iterations, memories) of a strict run on ``path``, in ``held``."""
    jit, run_type = PATHS[path]
    held = lp.Held(graph) if held is None else held
    params = lp.SlpaParams(memory_size=memory_size, tolerance=tolerance, strict=True, seed=seed)
    with mock.patch.object(slpa, "JIT_ENABLED", jit):
        labels, iterations, (slots, filled) = slpa_run(graph, params, held)
    assert type(held.run) is run_type
    memories = [slots[v, : filled[v]].tolist() for v in range(graph.vertex_count)]
    return labels.tolist(), iterations, memories


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=300, deadline=None)
@given(cases(), st.integers(2, 12))
def test_strict_path_matches_the_oracle(path, case, memory_size):
    graph, tolerance, seed = case
    got = strict_run(path, graph, memory_size, tolerance, seed)
    assert got == oracle(graph, memory_size, tolerance, True, seed)


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=100, deadline=None)
@given(cases())
def test_held_run_grown_from_3_to_9_matches_the_oracle(path, case):
    graph, tolerance, seed = case
    held = lp.Held(graph)
    for memory_size in (3, 9):
        got = strict_run(path, graph, memory_size, tolerance, seed, held)
        assert got == oracle(graph, memory_size, tolerance, True, seed)

