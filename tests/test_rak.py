import numpy as np
import pytest

import labelprop as lp
from conftest import partition_matches
from helpers import dense_tally, star, stream_row
from labelprop import graph as graph_module, rak
from labelprop.graph import arc_rows


class TestDetect:
    def test_two_disjoint_four_cliques_strict(self):
        g = lp.disjoint_cliques(2, 4)
        result = lp.rak_detect(g, lp.RakParams(strict=True, tolerance=0.05, seed=1))
        assert partition_matches(result.assignment, 2, 4)

    def test_isolated_vertices_keep_their_labels(self):
        g = lp.gnp(12, 0.0)
        result = lp.rak_detect(g, lp.RakParams(strict=True, seed=1))
        assert np.array_equal(result.assignment, np.arange(12))
        assert result.iterations == 1

    def test_star_collapses_to_one_community(self):
        g = star(5)
        result = lp.rak_detect(g, lp.RakParams(strict=True, seed=1))
        assert len(set(result.assignment.tolist())) == 1
        assert result.iterations <= 2

    def test_clique_recovery_all_modes_and_seeds(self, eight_cliques):
        for strict in (True, False):
            for seed in range(1, 11):
                result = lp.rak_detect(eight_cliques, lp.RakParams(strict=strict, seed=seed))
                assert partition_matches(result.assignment, 8, 6), (strict, seed)

    def test_labels_stay_in_range(self):
        g = lp.gnp(200, 0.05, seed=8)
        result = lp.rak_detect(g, lp.RakParams(seed=3))
        assert result.assignment.min() >= 0
        assert result.assignment.max() < 200
        assert result.iterations <= 100

    def test_strict_sequential_is_deterministic(self):
        g = lp.gnp(500, 0.02, seed=5)
        a = lp.rak_detect(g, lp.RakParams(strict=True, seed=9)).assignment
        b = lp.rak_detect(g, lp.RakParams(strict=True, seed=9)).assignment
        assert a.tobytes() == b.tobytes()

    def test_tolerance_monotonic_and_prefix(self):
        # non-strict, the replay must also leave the stream where the loose
        # run left it, skipped vertices included
        for g in (lp.gnp(400, 0.02, seed=2), lp.ring_of_cliques(8, 5)):
            for strict in (True, False):
                loose = lp.rak_detect(g, lp.RakParams(tolerance=0.1, strict=strict, seed=4))
                tight = lp.rak_detect(g, lp.RakParams(tolerance=0.0001, strict=strict, seed=4))
                assert tight.iterations >= loose.iterations
                replay = lp.rak_detect(
                    g,
                    lp.RakParams(
                        tolerance=0.0001, strict=strict, seed=4, max_iterations=loose.iterations
                    ),
                )
                assert np.array_equal(loose.assignment, replay.assignment), strict

    def test_asymmetric_graph_rejected(self):
        raw = lp.from_arcs(2, [0], [1], [1.0])
        with pytest.raises(ValueError, match="symmetric"):
            lp.rak_detect(raw)

    def test_empty_graph(self):
        g = lp.preprocess(lp.from_arcs(0, [], [], []))
        for strict in (False, True):  # interpreted, strict runs level by level
            result = lp.rak_detect(g, lp.RakParams(strict=strict))
            assert result.iterations == 0
            assert result.assignment.size == 0

    def test_result_reports_modularity(self, eight_cliques):
        result = lp.rak_detect(eight_cliques, lp.RakParams(strict=True, seed=1))
        assert result.modularity == pytest.approx(
            lp.modularity(eight_cliques, result.assignment), abs=1e-12
        )


class TestParallel:
    def test_parallel_matches_partition_on_cliques(self, eight_cliques):
        for workers in (2, 4):
            result = lp.rak_detect(
                eight_cliques, lp.RakParams(strict=True, seed=1, workers=workers)
            )
            assert partition_matches(result.assignment, 8, 6)

    def test_parallel_quality_close_to_sequential(self):
        g = lp.gnp(3000, 0.005, seed=6)
        seq = lp.rak_detect(g, lp.RakParams(strict=True, seed=1))
        for workers in (2, 4):
            par = lp.rak_detect(g, lp.RakParams(strict=True, seed=1, workers=workers))
            assert abs(par.modularity - seq.modularity) <= 0.05


def level_graphs():
    rng = np.random.default_rng(7)
    src, dst = rng.integers(0, 150, 500), rng.integers(0, 150, 500)
    weighted = lp.from_arcs(150, src, dst, rng.integers(1, 5, 500).astype(np.float64))
    return {
        "gnp": lp.gnp(300, 0.03, seed=4),
        "ring": lp.ring_of_cliques(8, 5),
        "weighted": lp.preprocess(weighted, unit_weights=False),
        # no self-loops and 80 arcs on 150 vertices: many vertices have no arcs
        "sparse": lp.preprocess(lp.from_arcs(150, src[:80], dst[:80], np.ones(80)), self_loops=False),
    }


class TestLevels:
    @pytest.mark.parametrize("name", sorted(level_graphs()))
    def test_levels_are_exact_visit_order_layers(self, name):
        g = level_graphs()[name]
        n = g.vertex_count
        order = rak.shuffled_indices(n, 3)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        plan = rak._level_plan(g, order)
        level = np.full(n, -1)
        for i, lv in enumerate(plan):
            assert (level[lv.vertices] == -1).all()
            level[lv.vertices] = i
            arcs = [np.arange(g.offsets[v], g.offsets[v + 1]) for v in lv.vertices]
            assert np.array_equal(lv.neighbors, g.neighbors[np.concatenate(arcs)])
            assert np.array_equal(lv.weights, g.weights[np.concatenate(arcs)])
        # the levels partition the vertices that have arcs
        has_arcs = np.diff(g.offsets) > 0
        assert np.array_equal(level >= 0, has_arcs)
        rows = np.repeat(np.arange(n), np.diff(g.offsets))
        cols = g.neighbors
        off = rows != cols
        # each level is an independent set, and every arc from an earlier to
        # a later visit position goes to a strictly higher level
        assert not (level[rows[off]] == level[cols[off]]).any()
        forward = off & (pos[rows] < pos[cols])
        assert (level[rows[forward]] < level[cols[forward]]).all()

    def test_visit_level_is_one_above_the_highest_earlier_neighbor(self):
        for g in level_graphs().values():
            order = rak.shuffled_indices(g.vertex_count, 5)
            want = np.zeros(g.vertex_count, dtype=np.int64)
            done = set()
            for v in order.tolist():
                row = g.neighbors[g.offsets[v]:g.offsets[v + 1]].tolist()
                want[v] = max((want[u] + 1 for u in row if u in done), default=0)
                done.add(v)
            level = np.zeros(g.vertex_count, dtype=np.int64)  # vertices without arcs stay at 0
            for i, lv in enumerate(rak._level_plan(g, order)):
                level[lv.vertices] = i
            assert np.array_equal(level, want)

    def test_first_max_with_unpackable_keys_matches_small_keys(self):
        # keys of a huge n fill int64 so the sort cannot pack the arc index
        # beside them (the argsort fallback); the picks must not change
        rng = np.random.default_rng(4)
        vertices, labels = 1000, 5
        counts = rng.integers(1, 8, vertices)
        assert counts.sum() >= graph_module._PACKED_FROM  # the small keys pack
        starts = np.cumsum(counts) - counts
        seen = rng.integers(0, labels, counts.sum())
        weights = rng.choice([0.5, 1.0, 2.0], counts.sum())
        local = np.arange(vertices, dtype=np.int64)
        small = rak._first_max(seen, weights, np.repeat(local * labels, counts), counts, starts)
        huge = 2**62 // vertices
        assert (vertices - 1) * huge >= 2 ** (63 - int(counts.sum()).bit_length())
        big = rak._first_max(seen, weights, np.repeat(local * huge, counts), counts, starts)
        assert np.array_equal(small, big)
        # and both pick the first label of largest tally in scan order
        for i in range(vertices):
            tally = {}
            for lab, w in zip(seen[starts[i]:starts[i] + counts[i]].tolist(),
                              weights[starts[i]:starts[i] + counts[i]].tolist()):
                tally[lab] = tally.get(lab, 0.0) + w
            assert small[i] == max(tally, key=lambda lab: tally[lab])  # first of the maxima

    @pytest.mark.skipif(lp.JIT_ENABLED, reason="compiled parallel runs race between threads")
    @pytest.mark.parametrize("name", sorted(level_graphs()))
    def test_strict_two_workers_match_one(self, name):
        g = level_graphs()[name]
        one = lp.rak_detect(g, lp.RakParams(strict=True, seed=2, tolerance=0.001))
        two = lp.rak_detect(g, lp.RakParams(strict=True, seed=2, tolerance=0.001, workers=2))
        assert np.array_equal(one.assignment, two.assignment)
        assert one.iterations == two.iterations


def two_pass_plan(graph, order):
    """The level plan as two passes built it: Kahn's frontier over a CSR of
    the later arcs gave every vertex a level, then a stable sort by level,
    one gather of every arc and a scan for the level bounds cut the plan."""
    n = graph.vertex_count
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    rows = arc_rows(graph)
    later = pos[graph.neighbors] > pos[rows]
    succ = graph.neighbors[later]
    succ_count = np.bincount(rows[later], minlength=n)
    succ_start = np.cumsum(succ_count) - succ_count
    waiting = np.bincount(succ, minlength=n)
    level = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(waiting == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        targets = succ[rak._concat_ranges(succ_start[frontier], succ_count[frontier])]
        np.subtract.at(waiting, targets, 1)
        ready = np.sort(targets[waiting[targets] == 0])
        frontier = ready[np.diff(ready, prepend=-1) != 0]
        depth += 1
    degree = np.diff(graph.offsets)
    vertices = np.flatnonzero(degree)
    vertices = vertices[np.argsort(level[vertices], kind="stable")]
    counts = degree[vertices]
    arcs = rak._concat_ranges(graph.offsets[vertices], counts)
    neighbors, weights = graph.neighbors[arcs], graph.weights[arcs]
    arc_end = np.cumsum(counts)
    arc_start = arc_end - counts
    plan = []
    bounds = np.flatnonzero(np.diff(level[vertices], prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first, end = arc_start[lo], arc_end[hi - 1]
        plan.append(rak._Level(
            vertices[lo:hi], neighbors[first:end], weights[first:end],
            np.repeat(np.arange(hi - lo, dtype=np.int64) * n, counts[lo:hi]),
            counts[lo:hi], arc_start[lo:hi] - first,
        ))
    return plan


def assert_same_plan(got, want):
    assert len(got) == len(want)
    for lv, ref in zip(got, want):
        for field, a, b in zip(rak._Level._fields, lv, ref):
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field


class TestOnePass:
    """_level_plan gives the plan the two-pass construction gave, field by field."""

    def test_matches_the_two_pass_plan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            n = draw(st.integers(0, 30))
            m = draw(st.integers(0, 3 * n))
            ids = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
            u, v = draw(ids), draw(ids)
            loops = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))  # (v, v) arcs
            w = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0]),
                              min_size=m + len(loops), max_size=m + len(loops)))
            unit = draw(st.booleans())
            # self-loops off: some vertices keep no arc, or only their drawn loop
            graph = lp.preprocess(lp.from_arcs(n, u + loops, v + loops, w), unit_weights=unit,
                                  self_loops=draw(st.booleans()))
            return graph, draw(st.integers(0, 2**32 - 1))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            graph, seed = case
            order = rak.shuffled_indices(graph.vertex_count, seed)
            assert_same_plan(rak._level_plan(graph, order), two_pass_plan(graph, order))

        check()

    @pytest.mark.parametrize("name", sorted(level_graphs()))
    def test_level_graphs(self, name):
        g = level_graphs()[name]
        order = rak.shuffled_indices(g.vertex_count, 3)
        assert_same_plan(rak._level_plan(g, order), two_pass_plan(g, order))


class TestLevelStep:
    """The batch gather and the frontier release that strict RAK's levels
    and strict SLPA's rounds share."""

    def test_batch_is_the_per_vertex_slices(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            degree = np.array(draw(st.lists(st.integers(0, 5), max_size=30)), dtype=np.int64)
            picked = draw(st.lists(st.sampled_from(range(len(degree))), unique=True)
                          if len(degree) else st.just([]))
            return degree, np.array(picked, dtype=np.int64), draw(st.integers(1, 2**40))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            degree, frontier, n = case
            first_arc = np.cumsum(degree) - degree + 7  # slices need not start at 0
            arcs, keys, counts, starts = rak._batch(frontier, first_arc, degree, n)
            at = 0
            for i, v in enumerate(frontier.tolist()):
                assert counts[i] == degree[v] and starts[i] == at
                got = slice(at, at + degree[v])
                assert arcs[got].tolist() == list(range(first_arc[v], first_arc[v] + degree[v]))
                assert keys[got].tolist() == [i * n] * degree[v]
                at += degree[v]
            assert arcs.size == keys.size == at
            assert arcs.dtype == keys.dtype == np.int64

        check()

    def test_released_walks_a_dag_in_kahn_levels(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def dags(draw):
            # arcs from earlier to later vertices of a random order, repeats allowed
            n = draw(st.integers(0, 30))
            rank = draw(st.permutations(range(n)))
            pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
            arcs = [(rank[min(a, b)], rank[max(a, b)])
                    for a, b in draw(st.lists(pairs, max_size=3 * n)) if n and a != b]
            return n, rank, arcs

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(dags())
        def check(dag):
            n, rank, arcs = dag
            # the oracle: a vertex's level is 1 + the highest of its predecessors'
            level = [0] * n
            for v in rank:
                level[v] = max((level[u] + 1 for u, w in arcs if w == v), default=0)
            successors = [[w for u, w in arcs if u == v] for v in range(n)]
            waiting = np.bincount(np.array([w for _, w in arcs], dtype=np.int64), minlength=n)
            frontier = np.flatnonzero(waiting == 0)
            depth, seen = 0, []
            while frontier.size:
                assert frontier.tolist() == [v for v in range(n) if level[v] == depth]
                seen += frontier.tolist()
                targets = [w for v in frontier.tolist() for w in successors[v]]
                frontier = rak._released(waiting, np.array(targets, dtype=np.int64))
                depth += 1
            assert sorted(seen) == list(range(n))  # each vertex exactly once
            assert not waiting.any()

        check()


# Planted partitions (groups, group size, p_in, p_out, graph seed) and the
# bound: RAK's mean Q over seeds 1-5, in each mode at the default
# tolerance, may trail networkx's asynchronous LPA over the same seeds by
# at most QUALITY_SLACK.  Neither is tuned to the results; the strict legs
# fail (README, Testing).
PLANTED = [(8, 25, 0.4, 0.02, 11), (16, 16, 0.5, 0.01, 12)]
QUALITY_SLACK = 0.02


@pytest.mark.parametrize("strict", [False, True], ids=["non-strict", "strict"])
@pytest.mark.parametrize("recipe", PLANTED, ids=str)
def test_quality_matches_networkx_async_lpa(recipe, strict):
    nx = pytest.importorskip("networkx")
    groups, size, p_in, p_out, seed = recipe
    G = nx.planted_partition_graph(groups, size, p_in, p_out, seed=seed)
    u, v = np.array(list(G.edges())).T
    g = lp.preprocess(lp.from_arcs(G.number_of_nodes(), u, v, np.ones(u.size)))
    seeds = range(1, 6)
    reference = np.mean([
        lp.modularity(g, partition_labels(nx.community.asyn_lpa_communities(G, seed=s), g))
        for s in seeds
    ])
    q = np.mean([lp.rak_detect(g, lp.RakParams(strict=strict, seed=s)).modularity for s in seeds])
    assert q >= reference - QUALITY_SLACK, (q, reference)


def partition_labels(communities, graph):
    labels = np.empty(graph.vertex_count, dtype=np.int64)
    for c, members in enumerate(communities):
        labels[list(members)] = c
    return labels


def pick(labels, weights, strict, stream=None):
    """The kernels' pick on one tally, drawing from ``stream`` (a fresh
    stream row for seed 1 by default)."""
    row, cursors = stream or stream_row(1)
    return rak._pick_from_tally(*dense_tally(labels, weights), strict, row, cursors, 0)


class TestChooseMaxLabel:
    def test_unique_maximum_wins_in_both_modes(self):
        assert pick([5, 9], [2.0, 1.0], True) == 5
        assert pick([5, 9], [2.0, 1.0], False) == 5

    def test_strict_takes_first_in_scan_order(self):
        assert pick([3, 7], [2.0, 2.0], True) == 3
        assert pick([7, 3], [2.0, 2.0], True) == 7

    def test_non_strict_tie_is_fair(self):
        stream = stream_row(42)
        picks = sum(pick([3, 7], [2.0, 2.0], False, stream) == 3 for _ in range(10_000))
        assert abs(picks / 10_000 - 0.5) <= 0.02

    def test_duplicate_labels_accumulate(self):
        assert pick([4, 9, 4], [1.0, 1.5, 1.0], True) == 4


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lp.RakParams(tolerance=0.0)
        with pytest.raises(ValueError):
            lp.RakParams(tolerance=1.5)
        with pytest.raises(ValueError):
            lp.RakParams(max_iterations=0)
        with pytest.raises(ValueError):
            lp.RakParams(workers=0)
