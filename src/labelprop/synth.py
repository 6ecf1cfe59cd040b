"""Synthetic graphs with known community structure, for tests and examples."""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_arcs, preprocess


def _clique_arcs(first: int, size: int):
    idx = np.arange(first, first + size, dtype=np.int64)
    i, j = np.triu_indices(size, k=1)
    return idx[i], idx[j]


def disjoint_cliques(cliques: int, clique_size: int, **pre) -> Graph:
    """``cliques`` disconnected cliques of ``clique_size`` vertices each."""
    us, vs = [], []
    for c in range(cliques):
        u, v = _clique_arcs(c * clique_size, clique_size)
        us.append(u)
        vs.append(v)
    return _undirected(cliques * clique_size, us, vs, **pre)


def ring_of_cliques(cliques: int, clique_size: int, **pre) -> Graph:
    """Cliques joined in a ring by single bridge edges.

    The classic stress case for label propagation: a healthy run keeps one
    community per clique instead of flooding the whole ring.
    """
    us, vs = [], []
    n = cliques * clique_size
    for c in range(cliques):
        u, v = _clique_arcs(c * clique_size, clique_size)
        us.append(u)
        vs.append(v)
        # bridge: last vertex of this clique to first vertex of the next
        us.append(np.array([(c + 1) * clique_size - 1], dtype=np.int64))
        vs.append(np.array([((c + 1) * clique_size) % n], dtype=np.int64))
    return _undirected(n, us, vs, **pre)


def gnp(n: int, p: float, seed: int = 1, **pre) -> Graph:
    """Erdos-Renyi G(n, p), sampled by geometric gap skipping (exact, O(m))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 2 or p == 0.0:
        return _undirected(max(n, 0), [], [])
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    picks = []
    pos = -1
    batch = max(int(total * p * 1.1) + 16, 1024)
    while pos < total - 1:
        gaps = rng.geometric(p, size=batch)
        idx = pos + np.cumsum(gaps)
        picks.append(idx[idx < total])
        if idx[-1] >= total:
            break
        pos = int(idx[-1])
    k = np.concatenate(picks) if picks else np.zeros(0, dtype=np.int64)
    # linear index over the upper triangle -> (i, j)
    row_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=row_starts[1:])
    i = np.searchsorted(row_starts, k, side="right") - 1
    j = k - row_starts[i] + i + 1
    return _undirected(n, [i], [j], **pre)


def _undirected(n, us, vs, unit_weights=True, self_loops=True) -> Graph:
    u = np.concatenate([np.asarray(a, dtype=np.int64) for a in us]) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate([np.asarray(a, dtype=np.int64) for a in vs]) if vs else np.zeros(0, dtype=np.int64)
    raw = from_arcs(n, u, v, np.ones(u.size))
    return preprocess(raw, unit_weights=unit_weights, self_loops=self_loops)
