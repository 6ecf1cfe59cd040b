"""Shared result type, kernel launch and held runs for the three detectors."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from ._backend import CHUNK, PAD, get_num_threads, kernel_args, set_num_threads, threads_run
from .prng import stream_rows, worker_states


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection call; `Held.go` builds and scores it.

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


def check_integers(obj, names):
    """Raise TypeError unless each of ``names`` that ``obj`` has is an
    integer: a `numbers.Integral` (numpy's too) other than bool."""
    for name in names:
        value = getattr(obj, name, 0)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def check_ranges(params):
    """Raise TypeError for the first field of a ``*Params`` of the wrong type
    (``strict`` not a bool, `check_integers`), then ValueError for the first
    out of range: ``tolerance`` in (0, 1], the integer fields at least `LEAST`."""
    if not isinstance(getattr(params, "strict", False), (bool, np.bool_)):
        raise TypeError(f"strict must be True or False, got {params.strict!r}")
    check_integers(params, (*LEAST, "seed"))
    if not 0.0 < params.tolerance <= 1.0:
        raise ValueError("tolerance must be in (0, 1]")
    for name, least in LEAST.items():
        if getattr(params, name, least) < least:
            raise ValueError(f"{name} must be >= {least}")


def state_zeros(size: int, dtype) -> np.ndarray:
    """``np.zeros(size, dtype)`` for a detector's state.  A size numpy cannot
    address (a ValueError from 2**60 int64 elements up) raises MemoryError,
    as one it can address but not allocate does."""
    try:
        return np.zeros(size, dtype=dtype)
    except ValueError:
        raise MemoryError(f"Unable to allocate {size} values of {np.dtype(dtype)}") from None


def run_key(params):
    """What a run of ``params`` has in common with every call that may
    continue it: the ``*Params`` class and its fields, less ``tolerance``
    and the fields the class lists in ``GROWS``, with ``workers`` as the
    threads that run (`threads_run`).  `run_sweep` keys its held runs by it."""
    skip = ("tolerance", *params.GROWS)
    values = {f.name: getattr(params, f.name) for f in fields(params) if f.name not in skip}
    values["workers"] = threads_run(values["workers"])
    return type(params), *values.values()


def continues(last, params):
    """Whether a run made with ``last`` (None: no run) makes the first
    iterations of a run with ``params``, so that `Held.go` may go on with
    it: same `run_key`, a tolerance no larger and no field of ``GROWS``
    smaller."""
    return (last is not None and run_key(last) == run_key(params)
            and params.tolerance <= last.tolerance
            and all(getattr(params, name) >= getattr(last, name) for name in params.GROWS))


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

    `hold` gives every detect call its handle and checks the graph.  `go`
    is the one driver of every detector: it times the call, calls the
    run, one iteration per call, until a cap or the detector's stopping
    rule ends it, reads the assignment back and returns it scored, as a
    `DetectionResult`.  The tolerance only decides when a run stops, so a
    run with a smaller tolerance makes the same first iterations and then
    goes on (the prefix property); so does a run with a larger field of
    its class's ``GROWS`` (a cap, SLPA's memory), and ``workers`` values
    that run on the same threads make the same iterations.  Given the
    handle of an earlier call on the same graph whose run makes a call's
    first iterations (`continues`), `rak_detect`, `copra_detect` and
    `slpa_detect` go on from the iteration where that call stopped, and
    run nothing if its last iteration already meets the new tolerance or
    it reached the new cap.  Any other call (the first, parameters of
    another class or other values, a larger tolerance, a smaller cap or
    memory) starts the run afresh in the handle.  Either way the result
    equals a standalone call's.

    ``iterations`` and ``count`` are the run's iterations and the count
    its stopping rule read in the last one.  ``elapsed`` sums the
    ``DetectionResult.elapsed`` of the calls since the run started: what
    one standalone run to the current tolerance takes.  ``memo``, a dict
    the handles of one graph may share, keeps what their runs have in
    common (`keep`): the graph's symmetry check, its kernel copy, RAK's
    visit order and level plan per seed, SLPA's speaking arcs and COPRA's
    arc lists.  A handle holds its run's whole kernel state until it is
    dropped.
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

    def go(self, params, start, cap, settled, read, score, grow=None):
        """The `DetectionResult` of ``read(run)``, scored by ``score(graph,
        assignment)``, once the run, continued (`continues`) or restarted
        by ``start()`` (a `Launch`, or an object called like one), has made
        ``cap`` iterations or ``settled(iterations, count)`` holds after
        its last one.  A continued run is first handed to ``grow(run)``,
        when given, to fit fields of ``GROWS`` that grew.  Its ``elapsed``
        (the call's time from the restart check through ``read``) is added
        to the handle's.  A fresh run makes at least one iteration, unless
        the graph has no vertices."""
        began = time.perf_counter()
        # a run cut short by an error, even in start() or grow(), starts afresh next time
        last, self.params = self.params, None
        if not continues(last, params):
            self.run = None  # freed before the new run is built
            self.run = start()
            self.iterations = self.count = 0
            self.elapsed = 0.0
        elif grow is not None:
            grow(self.run)
        while self.graph.vertex_count and self.iterations < cap and not (
            self.iterations and settled(self.iterations, self.count)
        ):
            self.count = self.run()
            self.iterations += 1
        self.params = params
        assignment = read(self.run)
        seconds = time.perf_counter() - began
        self.elapsed += seconds
        return DetectionResult(assignment, self.iterations, seconds, score(self.graph, assignment))


def hold(held, graph, check):
    """``held``, or a new handle of ``graph`` when it is None; a handle of
    another graph is an error.  Unless `preprocess` marked the graph
    symmetric, ``check(graph)`` runs once per memo: the detector's own
    ``check_symmetric``, passed in so that a trace's wrapper of it runs."""
    if held is None:
        held = Held(graph)
    elif held.graph is not graph:
        raise ValueError("the held run belongs to another graph")
    if not graph.symmetric:
        held.keep("symmetric", lambda: check(graph))
    return held
