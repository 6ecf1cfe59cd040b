"""Parameter sweeps over the three detectors.

A sweep crosses, per graph, the grids that apply to the chosen algorithm:

* ``rak``:   tolerance x mode x workers x repetitions
* ``copra``: tolerance x max_labels x workers x repetitions
* ``slpa``:  memory_size x mode x workers x repetitions

A graph's rows come in the order of this one product, its first factor
outermost.  The grids' defaults are `SweepSpec`'s fields, and building a
spec checks every value a row runs with (a mode against `MODES`, the
rest by the algorithm's ``*Params``), so a bad value fails before the
first row.  Parameters outside an algorithm's grids keep their
``*Params`` defaults (SLPA's tolerance is ``SlpaParams.tolerance``).
Repetition r runs with seed ``seed + r`` so non-strict runs differ.
`run_sweep` yields records as runs finish, in this process; grid fields
that do not apply to an algorithm are left empty in the CSV.

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

``labelprop sweep`` runs each input graph's rows (`run_sweep` on that
graph alone) in a worker process, `sweep_jobs` graphs at a time: the
usable CPUs (``os.sched_getaffinity``, or ``os.cpu_count()`` where that
is missing) divided by the most threads a row runs on (the largest
``workers`` value, clamped to the kernel thread pool), at most one job
per graph and at least one.  Interpreted, every row runs on one thread,
so each usable CPU takes a graph; compiled, a ``workers`` grid that
reaches the CPU count runs graphs one at a time, so thread-scaling rows
never share CPUs.  Rows and skip messages still come out in input
order, one graph's at a time.  A row's ``elapsed_ms`` is then measured
while other graphs run; for one-at-a-time timing, pass one graph per
call or run on one CPU (``taskset -c 0``).  Memory grows with the job
count, each job holding its graph and held runs, and a single graph
gains nothing.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Iterator, Optional, Sequence

from ._backend import threads_run
from .copra import CopraParams, copra_detect
from .graph import Graph
from .rak import RakParams, rak_detect
from .result import LEAST, Held
from .slpa import SlpaParams, slpa_detect

MODES = ("strict", "non-strict")

# Each algorithm's parameter dataclass, where its defaults are written.
PARAMS = {"rak": RakParams, "copra": CopraParams, "slpa": SlpaParams}

# Each algorithm's two grid axes, outer one first: (SweepSpec field, run_one keyword).
AXES = {
    "rak": (("tolerances", "tolerance"), ("modes", "mode")),
    "copra": (("tolerances", "tolerance"), ("max_labels", "max_labels")),
    "slpa": (("memory_sizes", "memory_size"), ("modes", "mode")),
}


@dataclass(frozen=True)
class SweepSpec:
    algorithm: str
    tolerances: tuple = (0.1, 0.05, 0.01, 0.001, 0.0001)
    max_labels: tuple = (1, 2, 4, 8, 16, 32)
    memory_sizes: tuple = (4, 8, 16, 32)
    modes: tuple = MODES
    workers: tuple = (1,)
    repetitions: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.algorithm not in PARAMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for f in fields(self):
            if f.type == "tuple" and len(getattr(self, f.name)) == 0:
                raise ValueError(f"{f.name} grid must be non-empty")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
        if self.repetitions < LEAST["repetitions"]:
            raise ValueError(f"repetitions must be >= {LEAST['repetitions']}")
        # the algorithm's *Params checks every other value a row runs with
        for grid, keyword in (*AXES[self.algorithm], ("workers", "workers")):
            if keyword != "mode":
                for value in getattr(self, grid):
                    PARAMS[self.algorithm](**{keyword: value})


@dataclass(frozen=True)
class RunRecord:
    """One sweep row; its fields, in order, are the CSV columns."""

    graph: str
    algorithm: str
    mode: Optional[str]
    # tolerance through seed are the run's *Params fields, None where it has none
    tolerance: Optional[float]
    max_labels: Optional[int]
    memory_size: Optional[int]
    workers: int
    seed: int
    iterations: int
    elapsed_ms: float = field(metadata={"format": ".3f"})
    modularity: float = field(metadata={"format": ".9f"})

    @classmethod
    def of(cls, graph: str, algorithm: str, params, result, elapsed: float) -> RunRecord:
        """The row of a run that used ``params`` (a ``*Params``), returned
        ``result`` and has taken ``elapsed`` seconds; ``mode`` is read from
        ``strict`` and is None for COPRA, which has no tie mode."""
        strict = getattr(params, "strict", None)
        mode = None if strict is None else MODES[not strict]
        used = (getattr(params, f.name, None) for f in fields(cls)[3:8])
        return cls(graph, algorithm, mode, *used, result.iterations, elapsed * 1000.0,
                   result.modularity)

    def csv_row(self) -> str:
        """The fields in order, each in its ``format``; None is an empty cell."""

        def cell(f):
            value = getattr(self, f.name)
            return "" if value is None else format(value, f.metadata.get("format", ""))

        return ",".join(map(cell, fields(self)))


CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


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


def run_sweep(spec: SweepSpec, graphs: Sequence[tuple[str, Graph]]) -> Iterator[RunRecord]:
    """Yield one RunRecord per graph and row, in this process.

    A graph's rows are ``product(outer axis, inner axis, workers,
    repetition seeds)`` in that order, the axes being the algorithm's
    `AXES`.
    """
    grids, keywords = zip(*AXES[spec.algorithm])
    seeds = range(spec.seed, spec.seed + spec.repetitions)
    cells = [dict(zip((*keywords, "workers", "seed"), values)) for values in
             product(*(getattr(spec, grid) for grid in grids), spec.workers, seeds)]
    # a held run continues down the tolerance grid, keyed by the row's other values
    runs = [tuple(v for k, v in cell.items() if k != "tolerance") for cell in cells]
    rows = Counter(runs)
    for name, graph in graphs:
        memo = {}  # what the runs of this graph share
        held = {}  # held run key -> (its handle, rows left)
        for cell, run in zip(cells, runs):
            handle, left = held.pop(run, None) or (Held(graph, memo), rows[run])
            if left > 1:
                held[run] = handle, left - 1
            result = run_one(spec.algorithm, graph, held=handle, **cell)
            yield RunRecord.of(name, spec.algorithm, handle.params, result, handle.elapsed)


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
