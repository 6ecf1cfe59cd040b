"""Newman-Girvan modularity scoring."""

from __future__ import annotations

import numpy as np

from .graph import Graph, arc_rows, degree_weights


def modularity(graph: Graph, assignment: np.ndarray) -> float:
    """Modularity Q of a community assignment, resolution 1.

    ``Q = sum_c [ w_c / W - (d_c / W)^2 ]`` where W is the graph's
    ``total_weight``, ``w_c`` the weight of arcs internal to community c
    (self-loops counted twice, matching the degree convention) and ``d_c``
    the summed weighted degree of its members.  One pass over arcs, one
    pass over vertices, with per-community double-precision accumulators.

    Values lie in [-0.5, 1.0]; the one-community partition scores exactly 0.
    """
    labels = np.asarray(assignment, dtype=np.int64)
    n = graph.vertex_count
    if labels.shape != (n,):
        raise ValueError(f"assignment length {labels.shape} does not match {n} vertices")
    if n == 0:
        return 0.0
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError("community labels must lie in [0, vertex_count)")
    total = graph.total_weight
    if total <= 0:
        return 0.0

    rows = arc_rows(graph)
    cols = graph.neighbors
    w = graph.weights
    internal = labels[rows] == labels[cols]
    w_c = np.bincount(labels[rows[internal]], weights=w[internal], minlength=n)
    diag = internal & (rows == cols)
    w_c += np.bincount(labels[rows[diag]], weights=w[diag], minlength=n)

    d_c = np.bincount(labels, weights=degree_weights(graph, rows), minlength=n)
    return float(w_c.sum() / total - np.square(d_c / total).sum())
