"""Property test: a whole COPRA run equals a plain sequential COPRA.

The oracle is written here from Gregory (2010), "Finding overlapping
communities in networks by label propagation", New J. Phys. 12:103018,
with the rules of `labelprop.copra`'s docstring, and shares no code with
the kernel but `prng.mix_seed` and `prng.xs32_next`:

* every row starts as ``[(own id, 1.0)]``; vertices update in id order,
  in place, so a vertex reads the rows that earlier vertices have already
  rewritten this iteration;
* each arc to a neighbour u other than the vertex itself adds
  ``belonging * weight`` for each entry of u's row, in row order, to a
  tally kept in first-seen order; with nothing added the row becomes
  ``[(v, 1.0)]``;
* otherwise, with ``total`` the tally's sum in first-seen order, at most
  ``max_labels`` labels with ``w * max_labels >= total`` are kept, in
  first-seen order; each kept w is multiplied by ``1.0 / kept_sum`` and
  the row is stored sorted by label id;
* if no label is kept, the row is one maximum label with belonging 1.0:
  the only one, or ``tied[x % len(tied)]`` of several in first-seen
  order, x the next `xs32_next` output of worker 0's sequence from
  ``mix_seed(seed, 0)``;
* the best label has the largest belonging, ties to the smallest id; the
  run stops once at most ``tolerance * n`` best labels changed in an
  iteration, or at ``max_iterations``.

With ``workers=1``, the assignment (the best labels), the iteration count
and every vertex's live (label, belonging) pairs must be equal.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import prng  # noqa: E402
from helpers import copra_run  # noqa: E402


def best_of(row):
    return min(row, key=lambda entry: (-entry[1], entry[0]))[0]


def oracle(graph, max_labels, max_iterations, tolerance, seed):
    n = graph.vertex_count
    offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    weights = graph.weights.tolist()
    rows = [[(v, 1.0)] for v in range(n)]
    best = list(range(n))
    x = prng.mix_seed(seed, 0)
    iterations = 0
    while n and iterations < max_iterations:
        iterations += 1
        changed = 0
        for v in range(n):
            tally = {}
            for e in range(offsets[v], offsets[v + 1]):
                u = neighbors[e]
                if u == v:
                    continue
                for lab, belonging in rows[u]:
                    tally[lab] = tally.get(lab, 0.0) + belonging * weights[e]
            if not tally:
                rows[v] = [(v, 1.0)]
            else:
                total = 0.0  # plain left-to-right adds: sum() compensates from Python 3.12
                for w in tally.values():
                    total += w
                kept = [(lab, w) for lab, w in tally.items() if w * max_labels >= total][:max_labels]
                if kept:
                    kept_sum = 0.0
                    for _, w in kept:
                        kept_sum += w
                    scale = 1.0 / kept_sum
                    rows[v] = sorted((lab, w * scale) for lab, w in kept)
                else:
                    top = max(tally.values())
                    tied = [lab for lab, w in tally.items() if w == top]
                    if len(tied) > 1:
                        x = prng.xs32_next(x)
                    rows[v] = [(tied[x % len(tied)], 1.0)]
            new = best_of(rows[v])
            changed += new != best[v]
            best[v] = new
        if changed <= tolerance * n:
            break
    return best, iterations, rows


# Unit weights, small integers, and tenths whose float sums depend on the
# order they are added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
WEIGHTS = {
    "unit": st.just(1.0),
    "integer": st.integers(1, 4).map(float),
    "tenths": st.sampled_from([0.1, 0.2, 0.3]),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(0, 3 * n))  # few arcs leave isolated vertices
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    u, v = draw(ids), draw(ids)
    w = draw(st.lists(WEIGHTS[kind], min_size=m, max_size=m))
    graph = lp.preprocess(
        lp.from_arcs(n, u, v, w),
        unit_weights=kind == "unit",
        self_loops=draw(st.booleans()),  # off: vertices may have no arcs at all
    )
    max_labels = draw(st.integers(1, 8))
    max_iterations = draw(st.integers(1, 30))
    tolerance = draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, max_labels, max_iterations, tolerance, seed


@settings(max_examples=300, deadline=None)
@given(cases())
def test_copra_matches_the_sequential_oracle(case):
    graph, max_labels, max_iterations, tolerance, seed = case
    params = lp.CopraParams(
        tolerance=tolerance, max_labels=max_labels, max_iterations=max_iterations, workers=1,
        seed=seed,
    )
    labels, iterations, (labs, bels, sizes) = copra_run(graph, params)
    rows = [
        list(zip(labs[v, : sizes[v]].tolist(), bels[v, : sizes[v]].tolist()))
        for v in range(graph.vertex_count)
    ]
    assert (labels.tolist(), iterations, rows) == oracle(
        graph, max_labels, max_iterations, tolerance, seed
    )
