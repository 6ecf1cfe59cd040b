"""Shared result type and kernel launch for the three detectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backend import CHUNK, MAX_THREADS, PAD, get_num_threads, kernel_args, set_num_threads
from .prng import stream_rows, worker_states


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection run.

    ``elapsed`` covers setting up the detector's state, the kernel and
    reading the state back; it excludes the symmetry check, RAK's
    visit-order shuffle and scoring.  ``modularity`` is computed on the
    final assignment.  A graph without vertices runs no kernel: its
    assignment is empty and ``iterations`` and ``modularity`` are 0.
    """

    assignment: np.ndarray
    iterations: int
    elapsed: float
    modularity: float


# Largest stream row a worker holds, so that rows stay O(max degree), not O(arcs).
STREAM_CAP = 1 << 16


def launch(kernel, graph, params, state, scalars, draws):
    """Run a chunked kernel on ``params.workers`` threads (clamped to the pool).

    The kernel is called as ``kernel(offsets, neighbors, weights, *state,
    *scalars, streams, cursors, tallies, touches, CHUNK)`` and updates
    ``state`` in place.  Worker k draws from its own xorshift32 stream,
    which starts after ``mix_seed(seed, k)``: row ``streams[k]`` holds
    precomputed values of it and ``cursors[k]`` indexes the next unread
    one (`labelprop.prng.stream_rows`).  A row holds ``draws`` values (the
    most one iteration may read), capped at ``STREAM_CAP`` but never fewer
    than the largest degree + 1, and is filled on its first read.  Worker
    k also tallies in its own dense row with a touched-label row, both
    padded by ``PAD``.  Returns the iteration count and the final state
    as numpy arrays of the input dtypes; on an empty graph the kernel is
    not run and the count is 0.
    """
    n = graph.vertex_count
    if n == 0:
        return 0, tuple(state)
    workers = min(params.workers, MAX_THREADS)
    size = max(min(draws, STREAM_CAP), int(np.diff(graph.offsets).max()) + 1)
    args = kernel_args(
        graph.offsets, graph.neighbors, graph.weights, *state,
        *stream_rows(worker_states(params.seed, workers), size),
        np.zeros((workers, n + PAD), dtype=np.float64),
        np.empty((workers, n + PAD), dtype=np.int64),
    )
    end = 3 + len(state)
    previous = get_num_threads()
    set_num_threads(workers)
    try:
        iterations = kernel(*args[:end], *scalars, *args[end:], CHUNK)
    finally:
        set_num_threads(previous)
    return int(iterations), tuple(np.asarray(a, dtype=s.dtype) for a, s in zip(args[3:end], state))
