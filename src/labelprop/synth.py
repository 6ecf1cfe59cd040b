"""Synthetic graphs and a brute-force modularity reference.

These back the property suites: small generated graphs with known
community structure, plus an O(|V|^2) modularity evaluation that is
deliberately independent of the CSR single-pass implementation.
"""

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


def star(n: int, **pre) -> Graph:
    """Hub vertex 0 with n-1 leaves."""
    if n < 2:
        return _undirected(max(n, 0), [], [])
    leaves = np.arange(1, n, dtype=np.int64)
    return _undirected(n, [np.zeros(n - 1, dtype=np.int64)], [leaves], **pre)


def path(n: int, **pre) -> Graph:
    """Simple path 0 - 1 - ... - (n-1)."""
    if n < 2:
        return _undirected(max(n, 0), [], [])
    idx = np.arange(n - 1, dtype=np.int64)
    return _undirected(n, [idx], [idx + 1], **pre)


def _undirected(n, us, vs, unit_weights=True, self_loops=True) -> Graph:
    u = np.concatenate([np.asarray(a, dtype=np.int64) for a in us]) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate([np.asarray(a, dtype=np.int64) for a in vs]) if vs else np.zeros(0, dtype=np.int64)
    raw = from_arcs(n, u, v, np.ones(u.size))
    return preprocess(raw, unit_weights=unit_weights, self_loops=self_loops)


def brute_modularity(graph: Graph, assignment) -> float:
    """Reference modularity by direct double loop over vertex pairs.

    Builds the dense adjacency matrix (self-loops doubled, matching the
    degree convention) and evaluates
    ``sum_{c(u)=c(v)} (A[u,v] - d[u] d[v] / W) / W`` literally.  Guarded to
    small graphs; this exists to cross-check the production scorer, so it
    must stay independent of it.
    """
    n = graph.vertex_count
    if n > 256:
        raise ValueError("brute_modularity is limited to 256 vertices")
    labels = np.asarray(assignment, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("assignment length must equal vertex_count")
    if n == 0:
        return 0.0
    dense = np.zeros((n, n), dtype=np.float64)
    for v in range(n):
        for e in range(graph.offsets[v], graph.offsets[v + 1]):
            u = int(graph.neighbors[e])
            w = float(graph.weights[e])
            dense[v, u] += 2.0 * w if u == v else w
    degree = dense.sum(axis=1)
    total = dense.sum()
    if total <= 0:
        return 0.0
    q = 0.0
    for u in range(n):
        for v in range(n):
            if labels[u] == labels[v]:
                q += dense[u, v] - degree[u] * degree[v] / total
    return q / total
