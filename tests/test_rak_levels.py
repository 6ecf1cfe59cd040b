"""Property tests: every RAK path equals a plain sequential RAK.

The oracle is written here, independent of the kernels: a dict tally in
CSR scan order, strict ties to the first maximum in first-seen order,
non-strict ties to ``tied[x % len(tied)]``, x the next `xs32_next` state
of worker 0's sequence.
Three paths are checked against it: the strict level path (`rak_detect`
with ``JIT_ENABLED`` patched to False, so it is checked whichever
backend `rak_detect` would pick), non-strict `rak_detect`, and strict
`_rak` through the launch, the path compiled runs take.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import prng, rak  # noqa: E402


def oracle(graph, seed, tolerance, max_iterations, strict):
    n = graph.vertex_count
    offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    weights = graph.weights.tolist()
    labels = list(range(n))
    order = rak.shuffled_indices(n, seed).tolist()
    x = prng.mix_seed(seed, 0)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        changed = 0
        for v in order:
            tally = {}
            for e in range(offsets[v], offsets[v + 1]):
                lab = labels[neighbors[e]]
                tally[lab] = tally.get(lab, 0.0) + weights[e]
            if not tally:
                continue
            top = max(tally.values())
            tied = [lab for lab, w in tally.items() if w == top]
            if strict or len(tied) == 1:
                best = tied[0]
            else:
                x = prng.xs32_next(x)
                best = tied[x % len(tied)]
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed <= tolerance * n:
            break
    return labels, iterations


def levels(graph, seed, tolerance, max_iterations):
    # the branch interpreted runs take: strict RAK level by level
    with mock.patch.object(rak, "JIT_ENABLED", False):
        return detect(graph, seed, tolerance, max_iterations, strict=True)


def detect(graph, seed, tolerance, max_iterations, strict):
    params = lp.RakParams(
        tolerance=tolerance, strict=strict, max_iterations=max_iterations, seed=seed
    )
    r = lp.rak_detect(graph, params)
    return r.assignment.tolist(), r.iterations


# Unit weights, small integers, and tenths whose float sums depend on the
# order they are added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
WEIGHTS = {
    "unit": st.just(1.0),
    "integer": st.integers(1, 4).map(float),
    "tenths": st.sampled_from([0.1, 0.2, 0.3]),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 4 * n))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    u, v = draw(ids), draw(ids)
    w = draw(st.lists(WEIGHTS[kind], min_size=m, max_size=m))
    graph = lp.preprocess(
        lp.from_arcs(n, u, v, w),
        unit_weights=kind == "unit",
        self_loops=draw(st.booleans()),  # off: vertices may have no arcs at all
    )
    seed = draw(st.integers(0, 2**32 - 1))
    tolerance = draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]))
    max_iterations = draw(st.integers(1, 12))
    return graph, seed, tolerance, max_iterations


@settings(max_examples=300, deadline=None)
@given(cases())
def test_levels_match_the_sequential_kernel(case):
    assert levels(*case) == oracle(*case, strict=True)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_non_strict_detect_matches_the_oracle(case):
    assert detect(*case, strict=False) == oracle(*case, strict=False)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_strict_list_kernel_matches_the_oracle(case):
    # the branch compiled runs take: strict RAK through the launch of `_rak`
    with mock.patch.object(rak, "JIT_ENABLED", True):
        got = detect(*case, strict=True)
    assert got == oracle(*case, strict=True)
