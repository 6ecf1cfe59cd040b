"""Oracles, small graphs and kernel arguments shared by the tests.

`brute_modularity` cross-checks `labelprop.quality`, so it reads only the
CSR arrays and never calls the scorer.  `dense_tally` and `stream_row`
build the arguments of the kernels' njit helpers (`rak._pick_from_tally`,
`copra._select_labels`), so tests call those helpers as the kernels do.
`copra_run` and `slpa_run` run a detector and read its final state back
from the `Held` handle: COPRA's live label rows from either run shape
(the kernel's launch or `copra._Rows`), SLPA's memories.  `git` and
`worktree_count` drive the throwaway repositories of the bench tests.
"""

import subprocess
from pathlib import Path

import numpy as np

import labelprop as lp
from labelprop import copra
from labelprop.prng import stream_rows
from labelprop.synth import _undirected


def _published(state, n: int, max_labels: int):
    """(labs, bels, sizes) of each vertex's published row in the state of a
    `copra._copra` launch, zeros past its live count."""
    labs, bels, sizes, pub, _ = state
    # explicit dtypes: interpreted, the state is lists, and np.asarray([]) is float64
    labs, sizes, pub = (np.array(a, dtype=np.int64) for a in (labs, sizes, pub))
    bels = np.array(bels, dtype=np.float64)
    shape = 2 * n, max_labels
    labs, bels, sizes = labs.reshape(shape)[pub], bels.reshape(shape)[pub], sizes[pub]
    dead = np.arange(max_labels) >= sizes[:, None]
    return np.where(dead, 0, labs), np.where(dead, 0.0, bels), sizes


def copra_run(graph: lp.Graph, params: lp.CopraParams):
    """(best labels, iterations, (labs, bels, sizes)) of a COPRA run on the
    path the backend takes: each vertex's live (label, belonging) pairs as
    a row of labels and one of belongings, zeros past its live count, and
    that count."""
    held = lp.Held(graph)
    r = lp.copra_detect(graph, params, held)
    n, L = graph.vertex_count, params.max_labels
    if not isinstance(held.run, copra._Rows):
        return r.assignment, r.iterations, _published(held.run.state, n, L)
    rows = held.run.rows
    labs, bels = np.zeros((n, L), dtype=np.int64), np.zeros((n, L), dtype=np.float64)
    for v, row in enumerate(rows):
        labs[v, :len(row)], bels[v, :len(row)] = zip(*row)
    sizes = np.array([len(row) for row in rows], dtype=np.int64)
    return r.assignment, r.iterations, (labs, bels, sizes)


def slpa_run(graph: lp.Graph, params: lp.SlpaParams, held: lp.Held | None = None):
    """(modal labels, iterations, (slots, filled)) of an SLPA run, in
    ``held`` or a new handle: every memory, one row per vertex (the kernel
    stores them slot-major), and its fill count."""
    held = lp.Held(graph) if held is None else held
    r = lp.slpa_detect(graph, params, held)
    slots, filled = (np.array(a, dtype=np.int64) for a in held.run.state)
    memories = slots.reshape(params.memory_size, graph.vertex_count).T
    return r.assignment, r.iterations, (memories, filled)


def star(n: int) -> lp.Graph:
    """Hub vertex 0 with n - 1 leaves."""
    return _undirected(n, [np.zeros(max(n - 1, 0))], [np.arange(1, n)])


def path(n: int) -> lp.Graph:
    """Simple path 0 - 1 - ... - (n - 1)."""
    return _undirected(n, [np.arange(max(n - 1, 0))], [np.arange(1, n)])


def brute_modularity(graph: lp.Graph, assignment) -> float:
    """Reference modularity by direct double loop over vertex pairs.

    Builds the dense adjacency matrix (self-loops doubled, matching the
    degree convention) and evaluates
    ``sum_{c(u)=c(v)} (A[u,v] - d[u] d[v] / W) / W`` literally.  Guarded to
    small graphs.
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


def dense_tally(labels, weights):
    """A tally given as parallel (label, weight) lists in scan order, in the
    kernels' form: (touched, tally, count), the distinct labels in
    first-seen order and a dense accumulator indexed by label."""
    tally = np.zeros(max(labels) + 1, dtype=np.float64)
    touched = np.empty(len(labels), dtype=np.int64)
    count = 0
    for lab, w in zip(labels, weights):
        if tally[lab] == 0.0:
            touched[count] = lab
            count += 1
        tally[lab] += w
    return touched, tally, count


def stream_row(state: int, size: int = 1024):
    """(row, cursors): one worker's stream row whose first read is the
    output after ``state``; read it as slot 0 (`prng.next_output`)."""
    rows, cursors = stream_rows([state], size)
    return rows[0], cursors


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        check=True, capture_output=True, text=True,
    ).stdout


def worktree_count(repo: Path) -> int:
    return git(repo, "worktree", "list", "--porcelain").count("worktree ")
