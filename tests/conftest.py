import os

# Give the kernel thread pool headroom before numba is imported, so the
# parallel-worker tests exercise real threads even on small CI boxes.
os.environ.setdefault("NUMBA_NUM_THREADS", "8")

import numpy as np
import pytest

import labelprop as lp

requires_jit = pytest.mark.skipif(
    not lp.JIT_ENABLED,
    reason="needs compiled kernels (numba is not importable, or LABELPROP_DISABLE_NUMBA is set)",
)


def partition_matches(assignment, cliques: int, size: int) -> bool:
    """True when the assignment is exactly one community per clique."""
    want = np.repeat(np.arange(cliques), size)
    pairs = set(zip(assignment.tolist(), want.tolist()))
    return len(pairs) == cliques and len(set(assignment.tolist())) == cliques


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
