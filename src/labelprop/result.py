"""Shared result type, kernel launch and held runs for the three detectors."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ._backend import CHUNK, PAD, get_num_threads, kernel_args, set_num_threads, threads_run
from .prng import stream_rows, worker_states


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection call.

    ``elapsed`` is the call's own work, as `Held.go` times it: setting up
    the detector's state (when the call starts a run), the kernel and
    reading the assignment back; it excludes the symmetry check, RAK's
    visit-order shuffle and scoring.  A call that continues a held run
    (`Held`) counts only the iterations it adds, while ``iterations`` is
    the run's total, as a standalone call with the same parameters
    reports it.  ``modularity`` is computed on the final assignment.  A
    graph without vertices runs no kernel: its assignment is empty and
    ``iterations`` and ``modularity`` are 0.
    """

    assignment: np.ndarray
    iterations: int
    elapsed: float
    modularity: float


# The least value of each integer field of the ``*Params`` classes, and of
# ``SweepSpec.repetitions``.
LEAST = {"max_iterations": 1, "max_labels": 1, "memory_size": 2, "workers": 1, "repetitions": 1}


def check_ranges(params):
    """Raise ValueError for the first field of a ``*Params`` out of its
    range: ``tolerance`` in (0, 1], the integer fields at least `LEAST`."""
    if not 0.0 < params.tolerance <= 1.0:
        raise ValueError("tolerance must be in (0, 1]")
    for name, least in LEAST.items():
        if getattr(params, name, least) < least:
            raise ValueError(f"{name} must be >= {least}")


# Largest stream row a worker holds, so that rows stay O(max degree), not O(arcs).
STREAM_CAP = 1 << 16


class Launch:
    """A chunked kernel with the arguments of one run, kept between calls.

    ``Launch(kernel, held, params, state, scalars, draws)`` hands ``state``
    to the backend (`kernel_args`) and gives each worker its random stream
    and tally rows.  Worker k draws from its own xorshift32 stream, which
    starts after ``mix_seed(seed, k)``: row ``streams[k]`` holds
    precomputed values of it and ``cursors[k]`` indexes the next unread
    one (`labelprop.prng.stream_rows`).  A row holds ``draws`` values (the
    most one iteration may read), capped at ``STREAM_CAP`` but never fewer
    than the largest degree + 1, and is filled on its first read.  Worker
    k also tallies in its own dense row with a touched-label row, both
    padded by ``PAD``.  The graph's CSR arrays as the kernel takes them
    come from ``held``'s memo, shared with the other runs of the graph.

    Each call runs one iteration, ``kernel(offsets, neighbors, weights,
    *state, *scalars, streams, cursors, tallies, touches, CHUNK)``, on
    ``params.workers`` threads (clamped to the pool), and returns the
    count the detector's stopping rule reads.  The kernel updates the
    state in place, so every call goes on from the state the last one
    left, streams and cursors included.
    """

    def __init__(self, kernel, held, params, state, scalars, draws):
        graph = held.graph
        self.kernel, self.scalars = kernel, scalars
        self.workers = threads_run(params.workers)
        n = graph.vertex_count
        size = max(min(draws, STREAM_CAP), int(np.diff(graph.offsets).max(initial=0)) + 1)
        self.graph = held.keep(
            "graph", lambda: kernel_args(graph.offsets, graph.neighbors, graph.weights)
        )
        self.state = kernel_args(*state)
        self.rows = kernel_args(
            *stream_rows(worker_states(params.seed, self.workers), size),
            np.zeros((self.workers, n + PAD), dtype=np.float64),
            np.empty((self.workers, n + PAD), dtype=np.int64),
        )

    def __call__(self):
        previous = get_num_threads()
        set_num_threads(self.workers)
        try:
            return int(self.kernel(*self.graph, *self.state, *self.scalars, *self.rows, CHUNK))
        finally:
            set_num_threads(previous)


class Held:
    """A run of one graph that later detect calls may continue.

    `go` is the one driver of every detector: it times the call, calls
    the run, one iteration per call, until a cap or the detector's
    stopping rule ends it, and reads the assignment back.  The tolerance only decides when a run stops, so a run with
    a smaller tolerance makes the same first iterations and then goes on
    (the prefix property).  Given the handle of an earlier call on the
    same graph whose parameters differ at most by a tolerance at least as
    large, `rak_detect`, `copra_detect` and `slpa_detect` go on from the
    iteration where that call stopped, and run nothing if its last
    iteration already meets the new tolerance or it reached the cap.  Any
    other call (the first, other parameters, a larger tolerance) starts
    the run afresh in the handle.  Either way the result equals a
    standalone call's.

    ``iterations`` and ``count`` are the run's iterations and the count
    its stopping rule read in the last one.  ``elapsed`` sums the
    ``DetectionResult.elapsed`` of the calls since the run started: what
    one standalone run to the current tolerance takes.  ``memo``, a dict
    the handles of one graph may share, keeps what their runs have in
    common (`keep`): the graph's kernel copy and RAK's visit order and
    level plan per seed.  A handle holds its run's whole kernel state
    until it is dropped.
    """

    def __init__(self, graph, memo=None):
        self.graph = graph
        self.memo = {} if memo is None else memo
        self.params = None
        self.run = None
        self.iterations = self.count = 0
        self.elapsed = 0.0

    def keep(self, key, make):
        """``make()``, made once per ``key`` among the handles that share the memo."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def go(self, params, start, cap, settled, read):
        """(read(run), iterations, seconds) once the run, continued or
        restarted by ``start()`` (a `Launch`, or an object called like
        one), has made ``cap`` iterations or ``settled(iterations, count)``
        holds after its last one.  ``seconds`` is the call's time from the
        restart check through ``read``, added to ``elapsed``.  A fresh run
        makes at least one iteration, unless the graph has no vertices."""
        began = time.perf_counter()
        # a run cut short by an error, even in start(), starts afresh next time
        last, self.params = self.params, None
        if (last is None or last.tolerance < params.tolerance
                or replace(last, tolerance=params.tolerance) != params):
            self.run = None  # freed before the new run is built
            self.run = start()
            self.iterations = self.count = 0
            self.elapsed = 0.0
        while self.graph.vertex_count and self.iterations < cap and not (
            self.iterations and settled(self.iterations, self.count)
        ):
            self.count = self.run()
            self.iterations += 1
        self.params = params
        out = read(self.run)
        seconds = time.perf_counter() - began
        self.elapsed += seconds
        return out, self.iterations, seconds


def hold(held, graph):
    """``held``, or a new handle when it is None; a handle of another graph is an error."""
    if held is None:
        return Held(graph)
    if held.graph is not graph:
        raise ValueError("the held run belongs to another graph")
    return held
