"""Synthetic graphs with known community structure, for tests and examples."""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_arcs, preprocess


def _clique_arcs(cliques: int, clique_size: int):
    """The arcs ``u < v`` of ``cliques`` disjoint cliques of ``clique_size``
    vertices, clique by clique."""
    i, j = np.triu_indices(clique_size, k=1)
    first = np.arange(cliques, dtype=np.int64)[:, None] * clique_size
    return (first + i).ravel(), (first + j).ravel()


def disjoint_cliques(cliques: int, clique_size: int, **pre) -> Graph:
    """``cliques`` disconnected cliques of ``clique_size`` vertices each."""
    u, v = _clique_arcs(cliques, clique_size)
    return _undirected(cliques * clique_size, [u], [v], **pre)


def ring_of_cliques(cliques: int, clique_size: int, **pre) -> Graph:
    """Cliques joined in a ring by single bridge edges.

    The classic stress case for label propagation: a healthy run keeps one
    community per clique instead of flooding the whole ring.
    """
    u, v = _clique_arcs(cliques, clique_size)
    # bridges: the last vertex of each clique to the first vertex of the next
    first = np.arange(cliques, dtype=np.int64) * clique_size
    return _undirected(cliques * clique_size, [u, first + clique_size - 1],
                       [v, np.roll(first, -1)], **pre)


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
