"""RAK / label propagation with single labels per vertex.

Every vertex starts with its own id as label.  Each iteration visits the
vertices asynchronously and re-labels each one with the
maximum-interconnecting-weight label among its neighbors; the self-loop
added by preprocessing makes the current label compete with weight 1.
Convergence: the run stops once the fraction of vertices that changed
label drops to the tolerance, or at the iteration cap.

Ties at the maximum are broken strictly (first label encountered in CSR
adjacency scan order, deterministic) or non-strictly (uniformly random
among the tied labels).

Visit order is a fixed seed-derived permutation, constant across
iterations (parallel runs hand 1024-slot chunks of it to the pool).
Visiting in ascending index order would correlate with the ascending
scan order used for strict ties and lets one label cascade through
chains of tied regions in a single pass, collapsing graphs like a ring
of cliques into a monster community; a decorrelated fixed order keeps
strict runs deterministic without that artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._backend import PAD, effective_workers, get_thread_id, kernel_args, njit, prange, thread_pool
from .graph import Graph, check_symmetric
from .prng import XorShift32, draw_bounded, shuffled_indices, worker_states
from .quality import modularity
from .result import DetectionResult

# Vertices per parallel work unit; chunks are handed to the pool's threads.
CHUNK = 1024


@dataclass(frozen=True)
class RakParams:
    tolerance: float = 0.05
    strict: bool = False
    max_iterations: int = 100
    workers: int = 1
    seed: int = 1

    def __post_init__(self):
        if not 0.0 < self.tolerance <= 1.0:
            raise ValueError("tolerance must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@njit(cache=True)
def _pick_from_tally(touched, tally, count, strict, states, slot):
    # touched[:count] holds the distinct labels in scan order; tally is the
    # dense accumulator.  Ties compare accumulated weights exactly.
    best_w = -1.0
    best = -1
    for i in range(count):
        lab = touched[i]
        w = tally[lab]
        if w > best_w:
            best_w = w
            best = lab
    if strict or count == 1:
        return best
    ties = 0
    for i in range(count):
        if tally[touched[i]] == best_w:
            ties += 1
    if ties == 1:
        return best
    j = draw_bounded(states, slot, ties)
    for i in range(count):
        lab = touched[i]
        if tally[lab] == best_w:
            if j == 0:
                return lab
            j -= 1
    return best


@njit(cache=True)
def _rak_seq(
    offsets, neighbors, weights, labels, order, strict, tolerance, max_iterations, states, tally,
    touched
):
    n = len(labels)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        changed = 0
        for i in range(n):
            v = order[i]
            count = 0
            for e in range(offsets[v], offsets[v + 1]):
                lab = labels[neighbors[e]]
                if tally[lab] == 0.0:
                    touched[count] = lab
                    count += 1
                tally[lab] += weights[e]
            if count == 0:
                continue  # no incident arcs at all: label cannot move
            best = _pick_from_tally(touched, tally, count, strict, states, 0)
            for i in range(count):
                tally[touched[i]] = 0.0
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed <= tolerance * n:
            break
    return iterations


@njit(cache=True, parallel=True)
def _rak_par(
    offsets, neighbors, weights, labels, order, strict, tolerance, max_iterations, states, tallies,
    touches, chunk
):
    n = len(labels)
    n_chunks = (n + chunk - 1) // chunk
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        changed = 0
        for c in prange(n_chunks):
            tid = get_thread_id()
            tally = tallies[tid]
            touched = touches[tid]
            local = 0
            hi = (c + 1) * chunk
            if hi > n:
                hi = n
            for i in range(c * chunk, hi):
                v = order[i]
                count = 0
                for e in range(offsets[v], offsets[v + 1]):
                    lab = labels[neighbors[e]]
                    if tally[lab] == 0.0:
                        touched[count] = lab
                        count += 1
                    tally[lab] += weights[e]
                if count == 0:
                    continue
                best = _pick_from_tally(touched, tally, count, strict, states, tid)
                for i in range(count):
                    tally[touched[i]] = 0.0
                if best != labels[v]:
                    labels[v] = best
                    local += 1
            changed += local
        if changed <= tolerance * n:
            break
    return iterations


def rak_detect(graph: Graph, params: RakParams | None = None) -> DetectionResult:
    """Run RAK on a preprocessed graph."""
    if params is None:
        params = RakParams()
    if __debug__:
        check_symmetric(graph)
    n = graph.vertex_count
    labels = np.arange(n, dtype=np.int64)
    if n == 0:
        return DetectionResult(labels, 0, 0.0, 0.0)
    order = shuffled_indices(n, params.seed)
    start = time.perf_counter()
    if params.workers == 1:
        offsets, neighbors, weights, labels, order, states, tally, touched = kernel_args(
            graph.offsets, graph.neighbors, graph.weights, labels, order,
            worker_states(params.seed, 1), np.zeros(n, dtype=np.float64),
            np.empty(n, dtype=np.int64),
        )
        iterations = _rak_seq(
            offsets, neighbors, weights, labels, order,
            params.strict, params.tolerance, params.max_iterations,
            states, tally, touched,
        )
    else:
        workers = effective_workers(params.workers)
        offsets, neighbors, weights, labels, order, states, tallies, touches = kernel_args(
            graph.offsets, graph.neighbors, graph.weights, labels, order,
            worker_states(params.seed, workers),
            np.zeros((workers, n + PAD), dtype=np.float64),
            np.empty((workers, n + PAD), dtype=np.int64),
        )
        with thread_pool(workers):
            iterations = _rak_par(
                offsets, neighbors, weights, labels, order,
                params.strict, params.tolerance, params.max_iterations,
                states, tallies, touches, CHUNK,
            )
    labels = np.asarray(labels, dtype=np.int64)
    elapsed = time.perf_counter() - start
    return DetectionResult(labels, int(iterations), elapsed, modularity(graph, labels))


def choose_max_label(labels, weights, strict: bool, rng: XorShift32) -> int:
    """Pick the winning label from a tally given as parallel arrays.

    ``labels``/``weights`` list the tally in scan order.  Strict mode
    returns the first maximum-weight label; non-strict picks uniformly
    among all tied maxima using ``rng``.
    """
    labs = np.asarray(labels, dtype=np.int64)
    wts = np.asarray(weights, dtype=np.float64)
    if labs.size == 0:
        raise ValueError("empty tally")
    if labs.size != wts.size:
        raise ValueError("labels and weights must have equal length")
    dense = np.zeros(int(labs.max()) + 1, dtype=np.float64)
    touched = np.empty(labs.size, dtype=np.int64)
    count = 0
    for lab, w in zip(labs, wts):
        if dense[lab] == 0.0:
            touched[count] = lab
            count += 1
        dense[lab] += w
    return int(_pick_from_tally(touched, dense, count, strict, rng._state, 0))
