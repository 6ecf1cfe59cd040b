import os

# Give the kernel thread pool headroom before numba is imported, so the
# parallel-worker tests exercise real threads even on small CI boxes.
os.environ.setdefault("NUMBA_NUM_THREADS", "8")

from dataclasses import replace

import numpy as np
import pytest

import labelprop as lp
from helpers import copra_run

# Tests that start `python -m labelprop` need the package under test on the
# child's path as well; pyproject's pytest `pythonpath` reaches this process only.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.dirname(os.path.dirname(lp.__file__)), os.environ.get("PYTHONPATH")))
)

requires_jit = pytest.mark.skipif(
    not lp.JIT_ENABLED,
    reason="needs compiled kernels (numba is not importable, or LABELPROP_DISABLE_NUMBA is set)",
)


def partition_matches(assignment, cliques: int, size: int) -> bool:
    """True when the assignment is exactly one community per clique."""
    want = np.repeat(np.arange(cliques), size)
    pairs = set(zip(assignment.tolist(), want.tolist()))
    return len(pairs) == cliques and len(set(assignment.tolist())) == cliques


def copra_row_bounds(graph, params):
    """(worst |sum(belongings) - 1|, smallest size, largest size) over every
    label row a COPRA run writes, and the final sizes of the run.

    The run is repeated with ``max_iterations`` = 1..K, K its iteration
    count, and the live part of every final row is checked.  Every vertex
    is rewritten in every iteration, and a capped run is a prefix of the
    full one, so these final rows are all the rows the full run wrote.
    """
    _, iterations, (_, _, sizes) = copra_run(graph, params)
    err, smallest, largest = 0.0, np.inf, -np.inf
    for cap in range(1, iterations + 1):
        _, _, (_, bels, capped) = copra_run(graph, replace(params, max_iterations=cap))
        live = np.arange(params.max_labels) < capped[:, None]
        err = max(err, float(np.abs(np.where(live, bels, 0.0).sum(axis=1) - 1.0).max()))
        smallest = min(smallest, int(capped.min()))
        largest = max(largest, int(capped.max()))
    return err, smallest, largest, sizes


@pytest.fixture(scope="session")
def two_triangles():
    return lp.disjoint_cliques(2, 3)


@pytest.fixture(scope="session")
def eight_cliques():
    return lp.disjoint_cliques(8, 6)


@pytest.fixture(scope="session")
def clique_ring():
    return lp.ring_of_cliques(16, 6)


@pytest.fixture(scope="session")
def warm_kernels(eight_cliques):
    """Compile every kernel once so timed tests never include JIT cost."""
    g = eight_cliques
    lp.rak_detect(g, lp.RakParams(strict=True, seed=1))
    lp.rak_detect(g, lp.RakParams(strict=False, seed=1, workers=2))
    lp.copra_detect(g, lp.CopraParams(seed=1))
    lp.copra_detect(g, lp.CopraParams(seed=1, workers=2))
    lp.slpa_detect(g, lp.SlpaParams(memory_size=4, seed=1))
    lp.slpa_detect(g, lp.SlpaParams(memory_size=4, seed=1, workers=2))
    lp.modularity(g, np.zeros(g.vertex_count, dtype=np.int64))
