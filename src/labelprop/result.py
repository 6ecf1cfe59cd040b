"""Shared result type, kernel launch and held runs for the three detectors."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._backend import CHUNK, MAX_THREADS, PAD, get_num_threads, kernel_args, set_num_threads
from .prng import stream_rows, worker_states


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection call.

    ``elapsed`` is the call's own work: setting up the detector's state
    (when the call starts a run), the kernel and reading the state back;
    it excludes the symmetry check, RAK's visit-order shuffle and
    scoring.  A call that continues a held run (`Held`) counts only the
    iterations it adds, while ``iterations`` is the run's total, as a
    standalone call with the same parameters reports it.  ``modularity``
    is computed on the final assignment.  A graph without vertices runs
    no kernel: its assignment is empty and ``iterations`` and
    ``modularity`` are 0.
    """

    assignment: np.ndarray
    iterations: int
    elapsed: float
    modularity: float


# Largest stream row a worker holds, so that rows stay O(max degree), not O(arcs).
STREAM_CAP = 1 << 16


def graph_args(graph):
    """The graph's CSR arrays as the kernels take them (lists when interpreted)."""
    return kernel_args(graph.offsets, graph.neighbors, graph.weights)


class Launch:
    """A chunked kernel with the arguments of one run, kept between calls.

    ``Launch(kernel, graph, params, state, draws)`` hands ``state`` to the
    backend (`kernel_args`) and gives each worker its random stream and
    tally rows.  Worker k draws from its own xorshift32 stream, which
    starts after ``mix_seed(seed, k)``: row ``streams[k]`` holds
    precomputed values of it and ``cursors[k]`` indexes the next unread
    one (`labelprop.prng.stream_rows`).  A row holds ``draws`` values (the
    most one iteration may read), capped at ``STREAM_CAP`` but never fewer
    than the largest degree + 1, and is filled on its first read.  Worker
    k also tallies in its own dense row with a touched-label row, both
    padded by ``PAD``.  ``graph_lists``, when given, is the graph's
    `graph_args`, shared with other runs of the graph.

    Calling it with ``scalars`` runs ``kernel(offsets, neighbors, weights,
    *state, *scalars, streams, cursors, tallies, touches, CHUNK)`` on
    ``params.workers`` threads (clamped to the pool).  The kernel updates
    the state in place and returns (iterations, the count its stopping
    rule read in the last one); on a graph without vertices it is not run
    and a call returns (0, 0).  Every call goes on from the state the last
    one left, streams and cursors included.
    """

    def __init__(self, kernel, graph, params, state, draws, graph_lists=None):
        self.kernel = kernel
        self.dtypes = tuple(s.dtype for s in state)
        self.workers = min(params.workers, MAX_THREADS)
        n = graph.vertex_count
        if n == 0:
            self.state, self.rows = tuple(state), None
            return
        size = max(min(draws, STREAM_CAP), int(np.diff(graph.offsets).max()) + 1)
        self.graph = graph_args(graph) if graph_lists is None else graph_lists
        self.state = kernel_args(*state)
        self.rows = kernel_args(
            *stream_rows(worker_states(params.seed, self.workers), size),
            np.zeros((self.workers, n + PAD), dtype=np.float64),
            np.empty((self.workers, n + PAD), dtype=np.int64),
        )

    def __call__(self, *scalars):
        if self.rows is None:
            return 0, 0
        previous = get_num_threads()
        set_num_threads(self.workers)
        try:
            iterations, count = self.kernel(*self.graph, *self.state, *scalars, *self.rows, CHUNK)
        finally:
            set_num_threads(previous)
        return int(iterations), int(count)

    def read(self):
        """The state as new numpy arrays of the input dtypes."""
        return tuple(np.array(a, dtype=d) for a, d in zip(self.state, self.dtypes))


class Held:
    """A run of one graph that later detect calls may continue.

    The tolerance only decides when a run stops, so a run with a smaller
    tolerance makes the same first iterations and then goes on (the
    prefix property).  Given the handle of an earlier call on the same
    graph whose parameters differ at most by a tolerance at least as
    large, `rak_detect` and `copra_detect` run on from the iteration
    where that call stopped.  If its last iteration already meets the new
    tolerance, or it reached ``max_iterations``, they run nothing and
    return its state.  Any other call (the first, other parameters, a
    larger tolerance) starts the run afresh in the handle.  Either way
    the result equals a standalone call's.

    ``elapsed`` sums the ``DetectionResult.elapsed`` of the calls since
    the run started: what one standalone run to the current tolerance
    takes.  ``memo``, a dict the handles of one graph may share, keeps
    what their runs have in common (`keep`): the graph's kernel copy and
    RAK's visit order and level plan per seed.  A handle holds its run's
    whole kernel state until it is dropped.
    """

    def __init__(self, graph, memo=None):
        self.graph = graph
        self.memo = {} if memo is None else memo
        self.params = None
        self.run = None
        self.iterations = self.changed = 0
        self.elapsed = 0.0

    def keep(self, key, make):
        """``make()``, made once per ``key`` among the handles that share the memo."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def go(self, params, start, *scalars):
        """(iterations, state) of the run, continued or restarted by
        ``start()`` (a `Launch`, or an object called and read like one),
        until ``params`` stops it.  The run is called with ``scalars`` and
        the iteration to go on from."""
        last = self.params
        if (last is None or last.tolerance < params.tolerance
                or replace(last, tolerance=params.tolerance) != params):
            self.run = None  # freed before the new run is built
            self.run = start()
            self.iterations = self.changed = 0
            self.elapsed = 0.0
        self.params = None  # a run cut short by an error starts afresh next time
        if self.iterations == 0 or (
            self.iterations < params.max_iterations
            and self.changed > params.tolerance * self.graph.vertex_count
        ):
            self.iterations, self.changed = self.run(*scalars, self.iterations)
        self.params = params
        return self.iterations, self.run.read()


def hold(held, graph):
    """``held``, or a new handle when it is None; a handle of another graph is an error."""
    if held is None:
        return Held(graph)
    if held.graph is not graph:
        raise ValueError("the held run belongs to another graph")
    return held
