"""Property test: a whole SLPA run equals a plain sequential SLPA.

The oracle is written here from the speaker-listener process of Xie,
Szymanski & Liu (2011), "SLPA: Uncovering overlapping communities in
social networks via a speaker-listener interaction dynamic process"
(ICDM Workshops), with the rules of `labelprop.slpa`'s docstring, and
shares no code with the kernel but the xorshift32 step:

* every memory starts as the vertex's own id; listeners go in vertex
  order, one speaking iteration at a time;
* each neighbour but the listener itself speaks ``memory[u][x %
  len(memory[u])]``, x the next `xs32_next` output of worker 0's
  sequence from ``mix_seed(seed, 0)``; a speaker earlier in the order
  has already appended this iteration;
* the listener appends the label of largest spoken weight: strict ties
  go to the first maximum in first-seen order, non-strict ties to
  ``tied[x % len(tied)]`` with one more draw; a listener nobody speaks to
  appends its own modal label (ties to the smallest id);
* the run stops from the second iteration on once at least ``(1 -
  tolerance) * n`` listeners appended the label they appended last, and
  after ``memory_size - 1`` iterations at the latest.

The assignment is each memory's modal label.  With ``workers=1``, the
assignment, the iteration count and every memory must be equal.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import prng  # noqa: E402
from helpers import slpa_run  # noqa: E402


def modal(memory):
    counts = Counter(memory)
    return min(counts, key=lambda lab: (-counts[lab], lab))


def oracle(graph, memory_size, tolerance, strict, seed):
    n = graph.vertex_count
    offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    weights = graph.weights.tolist()
    memories = [[v] for v in range(n)]
    x = prng.mix_seed(seed, 0)
    iterations = 0
    while n and iterations < memory_size - 1:
        iterations += 1
        repeats = 0
        for v in range(n):
            tally = {}
            for e in range(offsets[v], offsets[v + 1]):
                u = neighbors[e]
                if u == v:
                    continue
                x = prng.xs32_next(x)
                lab = memories[u][x % len(memories[u])]
                tally[lab] = tally.get(lab, 0.0) + weights[e]
            if not tally:
                lab = modal(memories[v])
            else:
                top = max(tally.values())
                tied = [lab for lab, w in tally.items() if w == top]
                if strict or len(tied) == 1:
                    lab = tied[0]
                else:
                    x = prng.xs32_next(x)
                    lab = tied[x % len(tied)]
            repeats += lab == memories[v][-1]
            memories[v].append(lab)
        if iterations >= 2 and repeats >= (1.0 - tolerance) * n:
            break
    return [modal(memory) for memory in memories], iterations, memories


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
    memory_size = draw(st.integers(2, 12))
    tolerance = draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, memory_size, tolerance, seed


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@settings(max_examples=300, deadline=None)
@given(cases())
def test_slpa_matches_the_sequential_oracle(strict, case):
    graph, memory_size, tolerance, seed = case
    params = lp.SlpaParams(
        memory_size=memory_size, tolerance=tolerance, strict=strict, workers=1, seed=seed
    )
    labels, iterations, (slots, filled) = slpa_run(graph, params)
    memories = [slots[v, : filled[v]].tolist() for v in range(graph.vertex_count)]
    assert (labels.tolist(), iterations, memories) == oracle(
        graph, memory_size, tolerance, strict, seed
    )
