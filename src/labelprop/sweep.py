"""Parameter sweeps over the three detectors.

A sweep crosses, per graph, the grids that apply to the chosen algorithm:

* ``rak``:   tolerance x mode x workers x repetitions
* ``copra``: tolerance x max_labels x workers x repetitions
* ``slpa``:  memory_size x mode x workers x repetitions

Parameters outside an algorithm's grids keep their ``*Params`` defaults
(SLPA's tolerance is ``SlpaParams.tolerance``).  Repetition r runs with
seed ``seed + r`` so non-strict runs differ.  `run_sweep` yields records
as runs finish, in this process; grid fields that do not apply to an
algorithm are left empty in the CSV.

A row continues the run of its cell, every grid value but the
tolerance (graph, mode, ``max_labels`` or ``memory_size``, workers,
repetition), that the cell's previous row left, instead of starting
again from the initial state (`labelprop.result.Held`): a tighter
tolerance only adds iterations to a looser run.  A row whose tolerance
is larger than the previous one's (an ascending grid) starts a fresh
run, and SLPA, which has no tolerance grid, has one row per cell.  Every
row equals a standalone run of its cell, and its ``elapsed_ms`` is the
run's cumulative time, about what the standalone run takes (a level plan
or graph copy that several cells share counts in the row that builds
it).  The sweep holds one live run per cell of the current graph, freed
after the cell's last row, and per graph one kernel copy of the graph
and one visit order and strict level plan per seed.

``labelprop sweep`` runs each input graph's rows (`graph_records`) in a
worker process, `sweep_jobs` graphs at a time: the usable CPUs
(``os.sched_getaffinity``, or ``os.cpu_count()`` where that is missing)
divided by the most threads a row runs on (the largest ``workers``
value, clamped to the kernel thread pool), at most one job per graph and
at least one.  Interpreted, every row runs on one thread, so each usable
CPU takes a graph; compiled, a ``workers`` grid that reaches the CPU
count runs graphs one at a time, so thread-scaling rows never share
CPUs.  Rows and skip messages still come out in input order, one
graph's at a time.  A row's ``elapsed_ms`` is then measured while other
graphs run; for one-at-a-time timing, pass one graph per call or run on
one CPU (``taskset -c 0``).  Memory grows with the job count, each job
holding its graph and held runs, and a single graph gains nothing.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ._backend import threads_run
from .copra import CopraParams, copra_detect
from .graph import Graph
from .rak import RakParams, rak_detect
from .result import Held
from .slpa import SlpaParams, slpa_detect

CSV_HEADER = "graph,algorithm,mode,tolerance,max_labels,memory_size,workers,seed,iterations,elapsed_ms,modularity"

DEFAULT_TOLERANCES = (0.1, 0.05, 0.01, 0.001, 0.0001)
DEFAULT_MAX_LABELS = (1, 2, 4, 8, 16, 32)
DEFAULT_MEMORY_SIZES = (4, 8, 16, 32)
MODES = ("strict", "non-strict")

# Each algorithm's parameter dataclass, where its defaults are written.
PARAMS = {"rak": RakParams, "copra": CopraParams, "slpa": SlpaParams}


@dataclass(frozen=True)
class SweepSpec:
    algorithm: str
    graphs: tuple = ()
    tolerances: tuple = DEFAULT_TOLERANCES
    max_labels: tuple = DEFAULT_MAX_LABELS
    memory_sizes: tuple = DEFAULT_MEMORY_SIZES
    modes: tuple = MODES
    workers: tuple = (1,)
    repetitions: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.algorithm not in PARAMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for grid, name in (
            (self.tolerances, "tolerances"),
            (self.max_labels, "max_labels"),
            (self.memory_sizes, "memory_sizes"),
            (self.modes, "modes"),
            (self.workers, "workers"),
        ):
            if len(grid) == 0:
                raise ValueError(f"{name} grid must be non-empty")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    graph: str
    algorithm: str
    mode: str
    tolerance: Optional[float]
    max_labels: Optional[int]
    memory_size: Optional[int]
    workers: int
    seed: int
    iterations: int
    elapsed_ms: float
    modularity: float

    def csv_row(self) -> str:
        def cell(x):
            return "" if x is None else str(x)

        return ",".join(
            [
                self.graph,
                self.algorithm,
                cell(self.mode or None),
                cell(self.tolerance),
                cell(self.max_labels),
                cell(self.memory_size),
                str(self.workers),
                str(self.seed),
                str(self.iterations),
                f"{self.elapsed_ms:.3f}",
                f"{self.modularity:.9f}",
            ]
        )


def run_one(
    algorithm: str, graph: Graph, *, mode: str = "non-strict", held: Held | None = None, **options
):
    """Dispatch one detection run; returns a DetectionResult.

    ``options`` are fields of the algorithm's ``*Params`` (``tolerance``,
    ``max_labels``, ``workers``, ...); a field not given, or given as
    None, keeps its default.  A non-None option the algorithm lacks (say
    ``max_labels`` for RAK, or ``max_iterations`` for SLPA) is a
    TypeError.  ``mode`` sets ``strict`` for RAK and SLPA; COPRA has no
    tie mode.  ``held`` is a run to continue where it can.
    """
    options = {k: v for k, v in options.items() if v is not None}
    strict = mode == "strict"
    if algorithm == "rak":
        return rak_detect(graph, RakParams(strict=strict, **options), held)
    if algorithm == "copra":
        return copra_detect(graph, CopraParams(**options), held)
    if algorithm == "slpa":
        return slpa_detect(graph, SlpaParams(strict=strict, **options), held)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _combos(spec: SweepSpec) -> Iterator[tuple[str, dict]]:
    """(mode, grid options) of every cell; COPRA's mode is empty."""
    if spec.algorithm == "rak":
        for tol in spec.tolerances:
            for mode in spec.modes:
                yield mode, {"tolerance": tol}
    elif spec.algorithm == "copra":
        for tol in spec.tolerances:
            for ml in spec.max_labels:
                yield "", {"tolerance": tol, "max_labels": ml}
    else:
        for ms in spec.memory_sizes:
            for mode in spec.modes:
                yield mode, {"memory_size": ms}


def graph_records(spec: SweepSpec, name: str, graph: Graph) -> Iterator[RunRecord]:
    """Yield one RunRecord per (combo x workers x repetition) of one graph."""
    params = PARAMS[spec.algorithm]
    combos = list(_combos(spec))
    # a held run's cell: every grid value but the tolerance
    cells = [(mode, options.get("max_labels"), options.get("memory_size"))
             for mode, options in combos]
    rows = Counter(cells)
    memo = {}  # what the runs of this graph share
    held = {}  # cell, workers, seed -> (its run, rows left)
    for cell, (mode, options) in zip(cells, combos):
        # the value each run used; empty where the algorithm has no such field
        used = {f: options.get(f, getattr(params, f, None))
                for f in ("tolerance", "max_labels", "memory_size")}
        for workers in spec.workers:
            for rep in range(spec.repetitions):
                seed = spec.seed + rep
                key = cell, workers, seed
                handle, left = held.pop(key, None) or (Held(graph, memo), rows[cell])
                if left > 1:
                    held[key] = handle, left - 1
                result = run_one(
                    spec.algorithm, graph, mode=mode or "non-strict", held=handle,
                    workers=workers, seed=seed, **options,
                )
                yield RunRecord(
                    graph=name,
                    algorithm=spec.algorithm,
                    mode=mode,
                    workers=workers,
                    seed=seed,
                    iterations=result.iterations,
                    elapsed_ms=handle.elapsed * 1000.0,
                    modularity=result.modularity,
                    **used,
                )


def run_sweep(spec: SweepSpec, graphs: Sequence[tuple[str, Graph]]) -> Iterator[RunRecord]:
    """Yield one RunRecord per (graph x combo x workers x repetition), in this process."""
    for name, graph in graphs:
        yield from graph_records(spec, name, graph)


def sweep_jobs(spec: SweepSpec, graph_count: int) -> int:
    """How many graphs of ``labelprop sweep`` run at once, each in its own process.

    ``usable_cpus // threads per row``, the threads per row being the
    most any ``spec.workers`` value runs on (`threads_run`), and at most
    ``graph_count``; never fewer than 1.  Interpreted, every row runs on
    one thread, so each usable CPU takes a graph.
    """
    per_row = max(threads_run(w) for w in spec.workers)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(graph_count, (cpus or 1) // per_row))
