"""COPRA: multi-label propagation with belonging coefficients.

Each vertex carries up to ``max_labels`` (label, belonging) pairs whose
belongings sum to 1.  An update collects neighbors' labels scaled by arc
weight and by the neighbor's belonging, excluding the vertex's own labels
(its current set contributes nothing and its self-loop arc is skipped),
normalizes, keeps the labels whose normalized belonging reaches
``1 / max_labels``, renormalizes, and caches the best label.  If nothing
reaches the threshold a single random maximum-belonging label is kept with
belonging 1; a vertex with no contributing neighbors rejoins its own
community.  Updates are asynchronous; the run stops when the fraction of
vertices whose best label changed drops to the tolerance.

The disjoint projection is each vertex's best label (maximum belonging,
ties to the smallest label id).

Which code runs.  Compiled (numba), the per-vertex kernel `_copra` runs
on ``workers`` threads.  Interpreted, COPRA runs on per-vertex label rows
(`_Rows`) for any ``workers`` (the interpreted kernel has one worker):
tuples of (label, belonging) pairs, tallied in a dict whose insertion
order is the kernel's scan order, with ties drawn from a stream row read
as the kernel reads worker 0's (`labelprop.prng.next_output`), so each
row's live pairs, the best labels, draws and iteration counts are
bit-for-bit the kernel's; the kernel's flat layout (two rows per vertex,
only the published row's live pairs ever read) is allocated only where
the kernel runs.
A fallback draw's place in the stream depends on every earlier vertex's
update, so the updates stay one vertex at a time.

Both paths make one iteration per call and return its changed count;
`labelprop.result.Held` runs them, stops once ``changed <= tolerance *
n`` or at ``max_iterations``, and keeps the run's state (the label rows,
the best labels and the stream's position) for a later call to
continue.  A graph's handles share its arc lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar

import numpy as np

from ._backend import JIT_ENABLED, get_thread_id, njit, prange
from .graph import Graph, arc_rows, check_symmetric
from .prng import next_output, stream_rows, worker_states
from .quality import modularity
from .rak import _pick_from_tally
from .result import STREAM_CAP, DetectionResult, Held, Launch, check_ranges, hold, state_zeros


@dataclass(frozen=True)
class CopraParams:
    # a larger cap only adds iterations to a run (`labelprop.result.continues`)
    GROWS: ClassVar[tuple] = ("max_iterations",)
    tolerance: float = 0.01
    max_labels: int = 8
    max_iterations: int = 100
    workers: int = 1
    seed: int = 1

    def __post_init__(self):
        check_ranges(self)


@njit(cache=True)
def _select_labels(
    touched, tally, count, max_labels, stream, cursors, slot, out_labels, out_bel, row
):
    # Keep labels whose normalized share reaches 1/max_labels (compared as
    # tally * max_labels >= total to avoid per-label division), renormalize
    # the kept ones, and store them sorted by label id in the row starting
    # at out_labels[row] / out_bel[row].  Falls back to one random maximum
    # label with belonging 1 when nothing qualifies.
    total = 0.0
    for i in range(count):
        total += tally[touched[i]]
    k = 0
    kept = 0.0
    for i in range(count):
        lab = touched[i]
        w = tally[lab]
        if w * max_labels >= total and k < max_labels:
            out_labels[row + k] = lab
            out_bel[row + k] = w
            kept += w
            k += 1
    if k == 0:
        out_labels[row] = _pick_from_tally(touched, tally, count, False, stream, cursors, slot)
        out_bel[row] = 1.0
        return 1
    inv = 1.0 / kept
    for i in range(row, row + k):
        out_bel[i] *= inv
    # insertion sort by label id (k <= max_labels, small)
    for i in range(row + 1, row + k):
        lab = out_labels[i]
        b = out_bel[i]
        j = i - 1
        while j >= row and out_labels[j] > lab:
            out_labels[j + 1] = out_labels[j]
            out_bel[j + 1] = out_bel[j]
            j -= 1
        out_labels[j + 1] = lab
        out_bel[j + 1] = b
    return k


@njit(cache=True)
def _best_of_row(labs, bels, row, k):
    # rows are sorted by label id, so a strict comparison keeps the
    # smallest id among belonging ties
    best = labs[row]
    best_b = bels[row]
    for j in range(row + 1, row + k):
        if bels[j] > best_b:
            best_b = bels[j]
            best = labs[j]
    return best


@njit(cache=True, parallel=True)
def _copra(
    offsets, neighbors, weights, labs, bels, sizes, pub, best, max_labels, streams, cursors,
    tallies, touches, chunk
):
    # Vertex v owns label rows 2v and 2v + 1 of the flat labs/bels (row r
    # starts at r * max_labels and holds sizes[r] live entries, the only
    # ones read); pub[v] names the published one.  A writer fills the
    # other row's live entries and size, then stores pub[v], so concurrent
    # readers always see a whole row.
    # One iteration; returns its changed count.
    n = len(best)
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
        for v in range(c * chunk, hi):
            count = 0
            for e in range(offsets[v], offsets[v + 1]):
                u = neighbors[e]
                if u == v:
                    continue
                w = weights[e]
                r = pub[u]
                ru = r * max_labels
                for j in range(ru, ru + sizes[r]):
                    lab = labs[j]
                    if tally[lab] == 0.0:
                        touched[count] = lab
                        count += 1
                    tally[lab] += bels[j] * w
            sv = pub[v] ^ 1
            rv = sv * max_labels
            if count == 0:
                labs[rv] = v
                bels[rv] = 1.0
                k = 1
                newbest = v
            else:
                k = _select_labels(
                    touched, tally, count, max_labels, stream, cursors, tid, labs, bels, rv
                )
                for i in range(count):
                    tally[touched[i]] = 0.0
                newbest = _best_of_row(labs, bels, rv, k)
            sizes[sv] = k
            pub[v] = sv
            if newbest != best[v]:
                best[v] = newbest
                local += 1
        changed += local
    return changed


def _arc_lists(graph: Graph) -> tuple[list, list]:
    """Each vertex's arcs less its self-loop, in CSR order, as two lists per
    vertex: its neighbors and the arcs' weights."""
    rows = arc_rows(graph)
    keep = graph.neighbors != rows
    ends = np.cumsum(np.bincount(rows[keep], minlength=graph.vertex_count)).tolist()
    starts = [0, *ends[:-1]]
    neighbors, weights = graph.neighbors[keep].tolist(), graph.weights[keep].tolist()
    return (
        [neighbors[a:b] for a, b in zip(starts, ends)],
        [weights[a:b] for a, b in zip(starts, ends)],
    )


class _Rows:
    """An interpreted run on per-vertex label rows, called as a `Launch` is.

    Vertex v's live row is a tuple of ``(label, belonging)`` pairs, sorted
    by label, and ``best[v]`` its best label; ``state`` is ``(best,)``, as
    a kernel's state ends with its best labels.  An update tallies its
    neighbors' rows in a dict: its insertion order is the kernel's
    ``touched`` scan order, so the sums, the total, the first
    ``max_labels`` labels to reach the threshold, the renormalised row,
    the best label and a fallback's tie are the kernel's to the bit.  A
    tie reads worker 0's stream through `next_output`, as the kernel's
    worker 0 does: ``stream`` is its row and cursor
    (`labelprop.prng.stream_rows`), n values long (a vertex draws at most
    once per iteration) but at most `STREAM_CAP` and at least 1.
    """

    def __init__(self, arcs, n, max_labels, seed):
        self.arcs, self.max_labels = arcs, max_labels
        rows, cursors = stream_rows(worker_states(seed, 1), max(min(n, STREAM_CAP), 1))
        self.stream = rows[0].tolist(), cursors.tolist()
        self.rows = [((v, 1.0),) for v in range(n)]
        self.best = list(range(n))
        self.state = (self.best,)

    def __call__(self) -> int:
        (neighbors, weights), L = self.arcs, self.max_labels
        rows, best = self.rows, self.best
        tally = {}
        add = tally.get
        changed = 0
        for v in range(len(rows)):
            for u, w in zip(neighbors[v], weights[v]):
                for lab, b in rows[u]:
                    tally[lab] = add(lab, 0.0) + b * w
            if not tally:
                row = ((v, 1.0),)
            else:
                total = 0.0
                for w in tally.values():
                    total += w
                kept = [(lab, w) for lab, w in tally.items() if w * L >= total][:L]
                if kept:
                    total = 0.0
                    for _, w in kept:
                        total += w
                    inv = 1.0 / total
                    row = tuple(sorted([(lab, w * inv) for lab, w in kept]))
                else:
                    # one maximum label; a tie takes the next value of the stream
                    top = max(tally.values())
                    tied = [lab for lab, w in tally.items() if w == top]
                    pick = next_output(*self.stream, 0) % len(tied) if len(tied) > 1 else 0
                    row = ((tied[pick], 1.0),)
                tally.clear()
            rows[v] = row
            new = row[0][0] if len(row) == 1 else max(row, key=itemgetter(1))[0]
            if new != best[v]:
                best[v] = new
                changed += 1
        return changed


def copra_detect(
    graph: Graph, params: CopraParams | None = None, held: Held | None = None
) -> DetectionResult:
    """Run COPRA on a preprocessed graph, continuing the run in ``held``
    where it can (`labelprop.result.Held`); the assignment is each best label."""
    if params is None:
        params = CopraParams()
    held = hold(held, graph, check_symmetric)
    n, L = graph.vertex_count, params.max_labels

    def start():
        if not JIT_ENABLED:
            return _Rows(held.keep("arc lists", lambda: _arc_lists(graph)), n, L, params.seed)
        labs = state_zeros(2 * n * L, np.int64)
        bels = state_zeros(2 * n * L, np.float64)
        sizes = np.ones(2 * n, dtype=np.int64)
        pub = np.arange(0, 2 * n, 2, dtype=np.int64)
        state = labs, bels, sizes, pub, np.arange(n, dtype=np.int64)
        # each vertex's published row starts as its own label with belonging 1
        labs[::2 * L] = np.arange(n)
        bels[::2 * L] = 1.0
        return Launch(_copra, held, params, state, (L,), n)

    return held.go(
        params, start, params.max_iterations, lambda _, changed: changed <= params.tolerance * n,
        lambda run: np.array(run.state[-1], dtype=np.int64), modularity,
    )
