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
iterations; the kernel hands 1024-slot chunks of it to the workers.
Visiting in ascending index order would correlate with the ascending
scan order used for strict ties and lets one label cascade through
chains of tied regions in a single pass, collapsing graphs like a ring
of cliques into a monster community; a decorrelated fixed order keeps
strict runs deterministic without that artifact.

Which code runs.  Compiled (numba), every mode runs the per-vertex
kernel `_rak` on ``workers`` threads; ``workers=1`` is one thread of the
same kernel.  Interpreted, strict RAK runs level by level with numpy,
for any ``workers`` (the interpreted kernel has one worker, which visits
in the sequential order).  A vertex's level is 1 + the highest level
among its neighbors that come earlier in the visit order
(Jones-Plassmann with the visit permutation as the priority), so each
level is an independent set.  The plan comes from one walk of Kahn's
frontier: each frontier is a level, and its arcs are gathered once.
Updating a level as a batch, every vertex reads the new labels of its
earlier neighbors (lower levels, already done) and the old labels of its
later ones (higher levels, not done yet): exactly what the sequential
sweep reads, so assignments and iteration counts are bit-for-bit the
same.  A level's label tallies are summed by ``np.bincount`` in arc
order, the order the kernel's ``tally[lab] += w`` adds in, so float
sums and therefore ties are identical on weighted graphs too.
Non-strict RAK keeps the list kernel: its tie draws follow the visit
order through one xorshift stream, which levels cannot reproduce.
COPRA keeps its kernel as well; interpreted strict SLPA runs in rounds
that pick their labels with this module's level step, `_first_max`
(`labelprop.slpa`).
The list kernel evaluates a vertex only while its ``stale`` flag is set:
cleared before its arcs are scanned (so a concurrent neighbor change
under threads sets it again), set when it draws from the stream or a
neighbor (itself, through its self-loop) changes label.  On a symmetric
graph those neighbors are all its tally reads, so a clean vertex would
read its last tally, which drew nothing, and keep its label without
moving the stream: pruning is exact in both modes.  Levels are not
pruned: almost every level of the planted sweep graphs keeps a stale
vertex, and sub-plans of the stale vertices or skipping clean levels
made strict rows about 40% or 30% slower.

Both paths make one iteration per call and return its changed count;
`labelprop.result.Held` runs them, stops once ``changed <= tolerance *
n`` or at ``max_iterations``, and keeps the run's state (labels, stale
flags, stream rows and cursors, or the level plan) for a later call to
continue.  A graph's handles share one visit order and one level plan
per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ._backend import JIT_ENABLED, get_thread_id, njit, prange
from .graph import Graph, _stable_order, arc_rows, check_symmetric
from .prng import next_output, shuffled_indices
from .quality import modularity
from .result import DetectionResult, Held, Launch, check_ranges, hold


@dataclass(frozen=True)
class RakParams:
    # a larger cap only adds iterations to a run (`labelprop.result.continues`)
    GROWS: ClassVar[tuple] = ("max_iterations",)
    tolerance: float = 0.05
    strict: bool = False
    max_iterations: int = 100
    workers: int = 1
    seed: int = 1

    def __post_init__(self):
        check_ranges(self)


@njit(cache=True)
def _pick_from_tally(touched, tally, count, strict, stream, cursors, slot):
    # touched[:count] holds the distinct labels in scan order; tally is the
    # dense accumulator.  Ties compare accumulated weights exactly.
    best_w = -1.0
    best = -1
    ties = 0
    for i in range(count):
        lab = touched[i]
        w = tally[lab]
        if w > best_w:
            best_w = w
            best = lab
            ties = 1
        elif w == best_w:
            ties += 1
    if strict or ties == 1:
        return best
    j = next_output(stream, cursors, slot) % ties
    for i in range(count):
        lab = touched[i]
        if tally[lab] == best_w:
            if j == 0:
                return lab
            j -= 1
    return best


@njit(cache=True, parallel=True)
def _rak(
    offsets, neighbors, weights, labels, order, stale, strict, streams, cursors, tallies, touches,
    chunk
):
    # One iteration; returns its changed count.  Worker tid draws from
    # streams[tid] and tallies in its own rows.
    n = len(labels)
    n_chunks = (n + chunk - 1) // chunk
    changed = 0
    for c in prange(n_chunks):
        tid = get_thread_id()
        stream = streams[tid]
        tally = tallies[tid]
        touched = touches[tid]
        local = 0
        hi = (c + 1) * chunk
        if hi > n:
            hi = n
        for i in range(c * chunk, hi):
            v = order[i]
            if not stale[v]:
                continue
            stale[v] = False
            count = 0
            for e in range(offsets[v], offsets[v + 1]):
                lab = labels[neighbors[e]]
                if tally[lab] == 0.0:
                    touched[count] = lab
                    count += 1
                tally[lab] += weights[e]
            if count == 0:
                continue  # no incident arcs at all: label cannot move
            drawn = cursors[tid]
            best = _pick_from_tally(touched, tally, count, strict, stream, cursors, tid)
            if cursors[tid] != drawn:
                stale[v] = True  # a draw: the same tally may pick differently
            for i in range(count):
                tally[touched[i]] = 0.0
            if best != labels[v]:
                labels[v] = best
                local += 1
                for e in range(offsets[v], offsets[v + 1]):
                    stale[neighbors[e]] = True
        changed += local
    return changed


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for every pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


class _Level(NamedTuple):
    """One level's vertices that have arcs, with their CSR arc slices concatenated."""

    vertices: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    keys: np.ndarray  # local vertex index * n, per arc
    counts: np.ndarray  # arcs per vertex
    starts: np.ndarray  # offset of each vertex's first arc


def _level_plan(graph: Graph, order: np.ndarray) -> list[_Level]:
    """The levels in update order, from one walk of Kahn's frontier.

    A vertex's level is 0 without earlier neighbors, else 1 + the highest
    level among the neighbors that come earlier in ``order``: it joins the
    frontier once every earlier neighbor has a level.  Each frontier, in
    ascending id order, is one level: its arcs are gathered once, and those
    that point to later vertices count down their wait.  The arcs a vertex
    reads are taken to be the reverses of the arcs that reach it, which
    holds on the symmetric graphs `rak_detect` accepts.  Vertices without
    arcs never move and are left out.
    """
    n = graph.vertex_count
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    degree = np.diff(graph.offsets)
    later = pos[graph.neighbors] > pos[arc_rows(graph)]  # per arc: it points to a later vertex
    waiting = np.bincount(graph.neighbors[later], minlength=n)  # earlier neighbors without a level
    frontier = np.flatnonzero((waiting == 0) & (degree > 0))
    plan = []
    while frontier.size:
        counts = degree[frontier]
        arcs = _concat_ranges(graph.offsets[frontier], counts)
        neighbors = graph.neighbors[arcs]
        plan.append(_Level(
            frontier, neighbors, graph.weights[arcs],
            np.repeat(np.arange(frontier.size, dtype=np.int64) * n, counts),
            counts, np.cumsum(counts) - counts,
        ))
        targets = neighbors[later[arcs]]
        np.subtract.at(waiting, targets, 1)
        ready = np.sort(targets[waiting[targets] == 0])  # np.unique would import numpy.ma
        frontier = ready[np.diff(ready, prepend=-1) != 0]
    return plan


def _first_max(seen, weights, keys, counts, starts) -> np.ndarray:
    """Each vertex's label of largest summed weight, as the strict kernel picks it.

    Vertex i's arcs are the slice of ``counts[i]`` arcs from ``starts[i]``
    (every count at least 1); an arc carries the label ``seen`` by it, its
    weight and its vertex's key, a multiple of n (above every label) that
    no other vertex has.  Ties go to the label of the earliest arc in scan
    order.  One sort, `labelprop.graph._stable_order`, groups the arcs by
    (vertex, label).
    """
    by_key, key = _stable_order(keys + seen)
    group = np.empty(key.size, dtype=np.int64)  # (vertex, label) group of each sorted arc
    group[0] = 0
    np.cumsum(key[1:] != key[:-1], out=group[1:])
    group_of_arc = np.empty_like(group)
    group_of_arc[by_key] = group
    # bincount adds each group's weights in arc order, as the kernel's tally does
    total = np.bincount(group_of_arc, weights=weights)[group]
    # a vertex's arcs span the same slice sorted or not; among the arcs whose
    # label reaches the vertex's maximum, the earliest in scan order wins
    best = np.maximum.reduceat(total, starts)
    tied = np.where(total == np.repeat(best, counts), by_key, key.size)
    return seen[np.minimum.reduceat(tied, starts)]


def _update_level(lv: _Level, labels: np.ndarray) -> int:
    """Relabel one level in place as the strict kernel would; returns the changed count."""
    new = _first_max(labels[lv.neighbors], lv.weights, lv.keys, lv.counts, lv.starts)
    changed = np.count_nonzero(new != labels[lv.vertices])
    labels[lv.vertices] = new
    return int(changed)


class _Levels:
    """A level-by-level strict run, called as a `Launch` is; its state is the labels."""

    def __init__(self, plan: list[_Level], labels: np.ndarray):
        self.plan, self.state = plan, (labels,)

    def __call__(self) -> int:
        return sum(_update_level(lv, self.state[0]) for lv in self.plan)


def rak_detect(
    graph: Graph, params: RakParams | None = None, held: Held | None = None
) -> DetectionResult:
    """Run RAK on a preprocessed graph, continuing the run in ``held``
    where it can (`labelprop.result.Held`)."""
    if params is None:
        params = RakParams()
    held = hold(held, graph, check_symmetric)
    n = graph.vertex_count
    order = held.keep(("order", params.seed), lambda: shuffled_indices(n, params.seed))

    def start():
        labels = np.arange(n, dtype=np.int64)
        if params.strict and not JIT_ENABLED:
            plan = held.keep(("plan", params.seed), lambda: _level_plan(graph, order))
            return _Levels(plan, labels)
        state = labels, order, np.ones(n, dtype=bool)
        return Launch(_rak, held, params, state, (params.strict,), n)

    return held.go(
        params, start, params.max_iterations, lambda _, changed: changed <= params.tolerance * n,
        lambda run: np.array(run.state[0], dtype=np.int64), modularity,
    )
