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

The kernel makes one iteration per call and returns its changed count;
`labelprop.result.Held` runs it, stops once ``changed <= tolerance * n``
or at ``max_iterations``, and keeps the run's state (both label rows of
every vertex, the best labels, stream rows and cursors) for a later call
to continue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._backend import get_thread_id, njit, prange
from .graph import Graph, check_symmetric
from .quality import modularity
from .rak import _pick_from_tally
from .result import DetectionResult, Held, Launch, check_ranges, hold, state_zeros


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
    # starts at r * max_labels and holds sizes[r] live entries); pub[v]
    # names the published one.  A writer fills the other row completely,
    # then stores pub[v], so concurrent readers always see a whole row.
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
            r = pub[v]
            sv = r ^ 1
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
            # The other row last held this vertex's row from two updates
            # ago; copying the published row's entries past k makes every
            # row, dead entries too, the row an in-place sweep would hold.
            d = r * max_labels - rv
            for j in range(rv + k, rv + sizes[r]):
                labs[j] = labs[j + d]
                bels[j] = bels[j + d]
            sizes[sv] = k
            pub[v] = sv
            if newbest != best[v]:
                best[v] = newbest
                local += 1
        changed += local
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
        # both rows of every vertex start as its own label with belonging 1
        labs = state_zeros(2 * n * L, np.int64)
        bels = state_zeros(2 * n * L, np.float64)
        labs[::L] = np.repeat(np.arange(n), 2)
        bels[::L] = 1.0
        sizes = np.ones(2 * n, dtype=np.int64)
        pub = np.arange(0, 2 * n, 2, dtype=np.int64)
        state = labs, bels, sizes, pub, np.arange(n, dtype=np.int64)
        return Launch(_copra, held, params, state, (L,), n)

    return held.go(
        params, start, params.max_iterations, lambda _, changed: changed <= params.tolerance * n,
        lambda run: np.array(run.state[-1], dtype=np.int64), modularity,
    )
