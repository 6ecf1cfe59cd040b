"""Benchmark inputs: seeded graph generators and their files, numpy only.

The generators do not use ``labelprop.synth``, so a change to the package
cannot change what the benchmark feeds it.  Every file is described by a
provenance record (recipe, seed, |V|, |E|, byte size, sha256) so that two
runs can show they read the same bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def _distinct_pairs(draw, m: int, n: int, rng: np.random.Generator):
    """``m`` distinct undirected pairs (lo < hi) drawn uniformly by ``draw``.

    ``draw(k)`` returns about ``k`` candidate pairs from the allowed set;
    loops and repeats are discarded and the pool is topped up until ``m``
    pairs remain, then thinned uniformly to exactly ``m``.
    """
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u, v = draw(int((m - keys.size) * 1.1) + 16)
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    if keys.size > m:
        keys = np.sort(rng.choice(keys, size=m, replace=False))
    keys = rng.permutation(keys)  # files list edges in no particular order
    return keys // n, keys % n


def gnp(n: int, avg_degree: float, rng: np.random.Generator):
    """Erdos-Renyi G(n, p) with p = avg_degree / (n - 1): (lo, hi) edge arrays."""
    p = avg_degree / (n - 1)
    m = int(rng.binomial(n * (n - 1) // 2, p))

    def draw(k):
        return rng.integers(0, n, size=k), rng.integers(0, n, size=k)

    return _distinct_pairs(draw, m, n, rng)


def planted(blocks: int, size: int, k_in: float, k_out: float, rng: np.random.Generator):
    """Planted partition: ``blocks`` groups of ``size`` vertices.

    A vertex has on average ``k_in`` neighbours in its own block and
    ``k_out`` in the others (each pair independently, as in G(n, p)).
    Block b holds vertices ``[b * size, (b + 1) * size)``.
    """
    n = blocks * size
    m_in = int(rng.binomial(blocks * (size * (size - 1) // 2), k_in / (size - 1)))
    m_out = int(rng.binomial(n * (n - size) // 2, k_out / (n - size)))

    def draw_in(k):
        base = rng.integers(0, blocks, size=k) * size
        return base + rng.integers(0, size, size=k), base + rng.integers(0, size, size=k)

    def draw_out(k):
        u = rng.integers(0, n, size=k)
        v = rng.integers(0, n, size=k)
        cross = u // size != v // size
        return u[cross], v[cross]

    ui, vi = _distinct_pairs(draw_in, m_in, n, rng)
    uo, vo = _distinct_pairs(draw_out, m_out, n, rng)
    order = rng.permutation(m_in + m_out)
    return np.concatenate([ui, uo])[order], np.concatenate([vi, vo])[order]


def _rows(a: np.ndarray, b: np.ndarray) -> str:
    pairs = np.column_stack([a, b]).astype(str)
    return "\n".join(map(" ".join, pairs.tolist())) + "\n"


def write_edge_list(path: Path, lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator) -> None:
    """0-based ``u v`` lines; each edge's orientation is a coin flip."""
    flip = rng.random(lo.size) < 0.5
    u = np.where(flip, hi, lo)
    v = np.where(flip, lo, hi)
    path.write_text(_rows(u, v) if lo.size else "", encoding="utf-8")


def write_matrix_market(path: Path, n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """``pattern symmetric`` coordinate file, lower triangle, 1-based."""
    head = f"%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {lo.size}\n"
    path.write_text(head + (_rows(hi + 1, lo + 1) if lo.size else ""), encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_graph_file(path: Path, recipe: dict, seed: int, index: int) -> dict:
    """Generate one graph from ``recipe`` and write it to ``path``.

    ``recipe`` is ``{"kind": "gnp", "n", "avg_degree"}`` (edge list) or
    ``{"kind": "planted", "blocks", "size", "k_in", "k_out"}``
    (MatrixMarket).  File ``index`` of a run draws from its own stream of
    ``seed``.  Returns the provenance record; its ``"arrays"`` entry holds
    ``(vertices, lo, hi)`` for the output checks and is not printed.
    """
    rng = np.random.default_rng([seed, index])
    if recipe["kind"] == "gnp":
        n = recipe["n"]
        lo, hi = gnp(n, recipe["avg_degree"], rng)
        write_edge_list(path, lo, hi, rng)
    elif recipe["kind"] == "planted":
        n = recipe["blocks"] * recipe["size"]
        lo, hi = planted(recipe["blocks"], recipe["size"], recipe["k_in"], recipe["k_out"], rng)
        write_matrix_market(path, n, lo, hi)
    else:
        raise ValueError(f"unknown recipe kind {recipe['kind']!r}")
    # An edge list's vertex count is its largest id + 1; pin it so the
    # checks build the same graph the program parses.
    if recipe["kind"] == "gnp" and lo.size:
        n = int(max(lo.max(), hi.max())) + 1
    return {
        "file": path.name,
        "recipe": dict(recipe),
        "seed": [seed, index],
        "vertices": n,
        "edges": int(lo.size),
        "bytes": path.stat().st_size,
        "sha256": sha256_file(path),
        "arrays": (n, lo, hi),
    }
