"""SLPA: speaker-listener propagation over fixed label memories.

Every vertex owns an append-only memory of ``memory_size`` slots, seeded
with its own id.  Each speaking iteration (at most ``memory_size - 1`` of
them) has every neighbor of a listener speak one uniformly random label
from its filled slots; the listener tallies the spoken labels by arc
weight and appends the winner (strict: first maximum in neighbor scan
order; non-strict: random among maxima).  Self-loops do not speak, and a
listener with no speaking neighbors appends its own current most popular
label.  The run stops early once enough vertices append the same label
they appended in the previous iteration.  That label is the memory's last
filled slot, so the memory is the only state a vertex carries; in the
first iteration the slot holds the vertex's own id, but repeats are
counted toward stopping only from the second iteration on.

The kernel makes one speaking iteration per call and returns its repeat
count; `labelprop.result.Held` runs it, at most ``memory_size - 1``
times, stops once ``repeats >= (1 - tolerance) * n`` from the second
iteration on, and keeps the memories, stream rows and cursors for a
later call to continue.  The memories are stored slot-major: slot i of
vertex v is ``slots[i * n + v]``, so a vertex's memory is
``slots[v::n][:filled[v]]`` and nothing but the state's size and the
run's cap reads ``memory_size``.  A later call with a larger memory
therefore continues the run too: its slots gain a zero pad at the end.

The disjoint projection is the modal label of each memory, frequency ties
broken by the smallest label id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._backend import get_thread_id, kernel_args, njit, prange
from .graph import Graph, check_symmetric
from .prng import refill
from .quality import modularity
from .rak import _pick_from_tally
from .result import DetectionResult, Held, Launch, check_ranges, hold


@dataclass(frozen=True)
class SlpaParams:
    # a larger memory only adds iterations to a run (`labelprop.result.continues`)
    GROWS: ClassVar[tuple] = ("memory_size",)
    memory_size: int = 20
    tolerance: float = 0.05
    strict: bool = False
    workers: int = 1
    seed: int = 1

    def __post_init__(self):
        check_ranges(self)


@njit(cache=True)
def _modal_label(slots, first, stride, filled):
    # most frequent of the filled slots first, first + stride, ...: one scan
    # over the sorted memory, where the strict > keeps the smallest id among tied runs
    memory = sorted(slots[first:first + filled * stride:stride])
    best = memory[0]
    best_count = 0
    run = 0
    for i in range(len(memory)):
        if i > 0 and memory[i] == memory[i - 1]:
            run += 1
        else:
            run = 1
        if run > best_count:
            best = memory[i]
            best_count = run
    return best


@njit(cache=True, parallel=True)
def _slpa(
    offsets, neighbors, weights, slots, filled, strict, streams, cursors, tallies, touches, chunk
):
    # One speaking iteration; slots is slot-major: slot i of vertex v is
    # slots[i * n + v].  Returns how many listeners appended the label of
    # their last filled slot.
    n = len(filled)
    n_chunks = (n + chunk - 1) // chunk
    repeats = 0
    for c in prange(n_chunks):
        tid = get_thread_id()
        stream = streams[tid]
        tally = tallies[tid]
        touched = touches[tid]
        local = 0
        hi = (c + 1) * chunk
        if hi > n:
            hi = n
        for v in range(c * chunk, hi):
            # a listener draws at most once per arc and once for a tie,
            # so with degree + 1 unread values in its row it reads them inline
            k = cursors[tid]
            if len(stream) - k <= offsets[v + 1] - offsets[v]:
                refill(stream, cursors, tid)
                k = 0
            count = 0
            for e in range(offsets[v], offsets[v + 1]):
                u = neighbors[e]
                if u == v:
                    continue  # self-loops do not speak
                lab = slots[(stream[k] % filled[u]) * n + u]
                k += 1
                if tally[lab] == 0.0:
                    touched[count] = lab
                    count += 1
                tally[lab] += weights[e]
            cursors[tid] = k
            if count == 0:
                # no speakers: fall back to the listener's own most popular label
                lab = _modal_label(slots, v, n, filled[v])
            else:
                lab = _pick_from_tally(touched, tally, count, strict, stream, cursors, tid)
                for i in range(count):
                    tally[touched[i]] = 0.0
            free = filled[v] * n + v
            if lab == slots[free - n]:
                local += 1
            slots[free] = lab
            filled[v] += 1  # publish only after the slot is written
        repeats += local
    return repeats


@njit(cache=True)
def _modal_labels(slots, filled):
    labels = np.empty(len(filled), dtype=np.int64)
    for v in range(len(filled)):
        labels[v] = _modal_label(slots, v, len(filled), filled[v])
    return labels


def slpa_detect(
    graph: Graph, params: SlpaParams | None = None, held: Held | None = None
) -> DetectionResult:
    """Run SLPA on a preprocessed graph, continuing the run in ``held``
    where it can (`labelprop.result.Held`); the assignment is each modal label."""
    if params is None:
        params = SlpaParams()
    held = hold(held, graph, check_symmetric)
    n, M = graph.vertex_count, params.memory_size

    def start():
        slots = np.zeros(n * M, dtype=np.int64)
        slots[:n] = np.arange(n)
        state = slots, np.ones(n, dtype=np.int64)
        return Launch(_slpa, held, params, state, (params.strict,), graph.edge_count + n)

    def grow(run):
        # a run held with a smaller memory: the slots gain a zero pad, and
        # the filled counts, stream rows and cursors stay
        kept = len(run.state[0])
        if kept < n * M:
            slots = np.pad(np.asarray(run.state[0], dtype=np.int64), (0, n * M - kept))
            run.state = (*kernel_args(slots), run.state[1])

    # first-iteration repeats compare with the seeded own id and never stop the run;
    # the modal labels are read on the kernel's own state, lists when interpreted
    return held.go(
        params, start, M - 1,
        lambda t, repeats: t >= 2 and repeats >= (1.0 - params.tolerance) * n,
        lambda run: _modal_labels(*run.state), modularity, grow,
    )
