"""SLPA: speaker-listener propagation over fixed label memories.

Every vertex owns an append-only memory of ``memory_size`` slots, seeded
with its own id.  Each speaking iteration (at most ``memory_size - 1`` of
them) has every neighbor of a listener speak one uniformly random label
from its filled slots; the listener tallies the spoken labels by arc
weight and appends the winner (strict: first maximum in neighbor scan
order; non-strict: random among maxima).  Self-loops do not speak, and a
listener with no speaking neighbors appends its own id, the only label
its memory ever holds.  The run stops early once enough vertices append
the same label they appended in the previous iteration.  That label is
the memory's last filled slot, so the memory is the only state a vertex
carries; in the first iteration the slot holds the vertex's own id, but
repeats are counted toward stopping only from the second iteration on.

Both paths below make one speaking iteration per call and return its
repeat count; `labelprop.result.Held` runs them, at most ``memory_size -
1`` times, stops once ``repeats >= (1 - tolerance) * n`` from the second
iteration on, and keeps the memories and the stream's position for a
later call to continue.  The memories are stored slot-major: slot i of
vertex v is ``slots[i * n + v]``, so a vertex's memory is
``slots[v::n][:filled[v]]`` and nothing but the state's size and the
run's cap reads ``memory_size``.  A later call with a larger memory
therefore continues the run too: its slots gain a zero pad at the end.

Which code runs.  Compiled (numba), every mode runs the per-listener
kernel `_slpa` on ``workers`` threads, and so does non-strict SLPA
interpreted: its tie draws fall between the speaker draws of one stream.
Interpreted, strict SLPA runs each iteration as numpy rounds
(`_Rounds`), for any ``workers`` (the interpreted kernel has one
worker).  A strict listener draws exactly once per speaking arc, so an
iteration reads one stream of as many values as the graph has speaking
arcs, in CSR order, and only a draw that lands on the newest slot of an
earlier speaker waits for this iteration's work: with probability 1 / (t
+ 1) in iteration t.  The rounds resolve those waits in Kahn's order and
sum each round's tallies as strict RAK's levels do, so memories, repeat
counts and iteration counts are bit-for-bit the kernel's.  The speaking
arcs are kept once per graph.

The disjoint projection is the modal label of each memory, frequency ties
broken by the smallest label id; both paths read it with numpy
(`_modal_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ._backend import JIT_ENABLED, get_thread_id, kernel_args, njit, prange
from .graph import Graph, _stable_order, arc_rows, check_symmetric
from .prng import refill, worker_states, xs32_blocks
from .quality import modularity
from .rak import _batch, _concat_ranges, _first_max, _pick_from_tally, _released
from .result import DetectionResult, Held, Launch, check_ranges, hold, state_zeros


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
                lab = v  # no speakers: the modal label of a memory of v alone
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


def _modal_labels(block: np.ndarray) -> np.ndarray:
    """The modal label of each column of a (slots x vertices) block: sorted,
    the first of the longest runs wins, so ties go to the smallest id."""
    block = np.sort(block, axis=0)
    rows = np.arange(len(block))[:, None]
    # the row where each sorted run starts, carried down the run
    first = np.maximum.accumulate(np.where(np.diff(block, axis=0, prepend=-1) != 0, rows, 0))
    return block[np.argmax(rows - first, axis=0), np.arange(block.shape[1])]


class _Speakers(NamedTuple):
    """A graph's speaking arcs: its arcs less self-loops, in CSR order, the
    order a strict listener draws for them in."""

    listeners: np.ndarray
    speakers: np.ndarray
    weights: np.ndarray
    earlier: np.ndarray  # per arc: the speaker appends before its listener
    starts: np.ndarray  # per vertex: offset of its first speaking arc
    counts: np.ndarray  # per vertex: its speaking arcs
    quiet: np.ndarray  # vertices without speakers


def _speaking_arcs(graph: Graph) -> _Speakers:
    listeners = arc_rows(graph)
    speaks = graph.neighbors != listeners
    listeners, speakers = listeners[speaks], graph.neighbors[speaks]
    counts = np.bincount(listeners, minlength=graph.vertex_count)
    return _Speakers(
        listeners, speakers, graph.weights[speaks], speakers < listeners,
        np.cumsum(counts) - counts, counts, np.flatnonzero(counts == 0),
    )


class _Rounds:
    """A strict run in numpy rounds, called as a `Launch` is; its state is
    ``(slots, filled)``, and ``draws`` gives each iteration's stream values
    (`xs32_blocks` after worker 0's state ``x``).

    In iteration t every memory holds t slots, and a listener's arcs read
    one stream value each, in CSR order, so the iteration's draws are one
    stream of as many values as there are speaking arcs.  Arc (v, u)
    reads slot ``r % (t + 1)`` of a speaker u < v, which has appended
    already, and ``r % t`` of a later one: it reads this iteration's work
    only when u < v and the slot is t.  Listeners whose arcs read no such
    slot go in the first round; Kahn's frontier then takes each listener
    once every speaker whose newest slot it reads has appended, and each
    round picks its listeners' labels in one batch by strict RAK's level
    step (`labelprop.rak._batch`, `_first_max`, `_released`).  On the
    symmetric graphs `slpa_detect` accepts, nobody waits for a vertex
    without speakers.
    """

    def __init__(self, plan: _Speakers, slots: np.ndarray, filled: np.ndarray, x: int):
        self.plan, self.state = plan, (slots, filled)
        self.draws = xs32_blocks(x, len(plan.speakers))

    def __call__(self) -> int:
        sp, (slots, filled) = self.plan, self.state
        n, t = len(filled), int(filled[0])
        # each arc's draw, made in place the slot it reads, then that slot's index
        read = next(self.draws)
        np.remainder(read, t + sp.earlier, out=read)
        waits = np.flatnonzero(read == t)  # the arcs that read this iteration's slot
        read *= n
        read += sp.speakers
        new = slots[t * n:(t + 1) * n]
        # a vertex nobody speaks to appends its own id, as the kernel does
        new[sp.quiet] = sp.quiet
        # Kahn's frontier: how many speakers each listener waits for, and
        # the waiting listeners grouped by speaker
        waiters, by_speaker = sp.listeners[waits], sp.speakers[waits]
        waiting = np.bincount(waiters, minlength=n)
        heard = np.bincount(by_speaker, minlength=n)
        heard_from = np.cumsum(heard) - heard
        waiters = waiters[_stable_order(by_speaker)[0]]
        frontier = np.flatnonzero((waiting == 0) & (sp.counts > 0))
        while frontier.size:
            arcs, keys, counts, starts = _batch(frontier, sp.starts, sp.counts, n)
            new[frontier] = _first_max(slots[read[arcs]], sp.weights[arcs], keys, counts, starts)
            targets = waiters[_concat_ranges(heard_from[frontier], heard[frontier])]
            frontier = _released(waiting, targets)
        filled += 1
        return int(np.count_nonzero(new == slots[(t - 1) * n:t * n]))


def _read(run) -> np.ndarray:
    """The modal label of every memory of a run; every memory holds as many slots."""
    slots, filled = (np.asarray(a, dtype=np.int64) for a in run.state)
    n = len(filled)
    if not n:
        return np.empty(0, dtype=np.int64)
    return _modal_labels(slots[:filled[0] * n].reshape(-1, n))


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
        slots = state_zeros(n * M, np.int64)
        slots[:n] = np.arange(n)
        filled = np.ones(n, dtype=np.int64)
        if params.strict and not JIT_ENABLED:
            plan = held.keep("speakers", lambda: _speaking_arcs(graph))
            return _Rounds(plan, slots, filled, int(worker_states(params.seed, 1)[0]))
        return Launch(_slpa, held, params, (slots, filled), (params.strict,), graph.edge_count + n)

    def grow(run):
        # a run held with a smaller memory: the slots gain a zero pad, and
        # the filled counts, stream rows and cursors stay
        kept = len(run.state[0])
        if kept < n * M:
            slots = state_zeros(n * M, np.int64)
            slots[:kept] = run.state[0]
            if isinstance(run, Launch):
                (slots,) = kernel_args(slots)
            run.state = slots, run.state[1]

    # first-iteration repeats compare with the seeded own id and never stop the run
    return held.go(
        params, start, M - 1,
        lambda t, repeats: t >= 2 and repeats >= (1.0 - params.tolerance) * n,
        _read, modularity, grow,
    )
