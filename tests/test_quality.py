import numpy as np
import pytest

import labelprop as lp
from helpers import brute_modularity


def two_unit_triangles_no_loops() -> lp.Graph:
    u = [0, 0, 1, 3, 3, 4]
    v = [1, 2, 2, 4, 5, 5]
    return lp.preprocess(lp.from_arcs(6, u, v, np.ones(6)), self_loops=False)


def test_one_community_scores_exactly_zero():
    for g in (
        lp.disjoint_cliques(3, 4),
        lp.gnp(30, 0.2, seed=1),
        two_unit_triangles_no_loops(),
    ):
        q = lp.modularity(g, np.zeros(g.vertex_count, dtype=np.int64))
        assert q == pytest.approx(0.0, abs=1e-12)


def test_two_triangles_each_their_own_community():
    g = two_unit_triangles_no_loops()
    labels = np.array([0, 0, 0, 1, 1, 1])
    # W = 12, each triangle: internal weight 6, degree mass 6
    assert lp.modularity(g, labels) == pytest.approx(0.5, abs=1e-12)
    assert brute_modularity(g, labels) == pytest.approx(0.5, abs=1e-9)


def test_singleton_partition_without_self_loops_is_nonpositive():
    g = two_unit_triangles_no_loops()
    labels = np.arange(6)
    degs = lp.degree_weights(g)
    expected = -np.square(degs / g.total_weight).sum()
    q = lp.modularity(g, labels)
    assert q == pytest.approx(expected, abs=1e-12)
    assert q <= 0.0


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 65))
        p = (0.05, 0.2, 0.5)[trial % 3]
        g = lp.gnp(n, p, seed=int(rng.integers(1, 1 << 31)))
        labels = rng.integers(0, n, size=n)
        assert lp.modularity(g, labels) == pytest.approx(
            brute_modularity(g, labels), abs=1e-9
        )


def test_relabeling_communities_leaves_q_unchanged():
    g = lp.gnp(60, 0.15, seed=4)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 60, size=60)
    perm = rng.permutation(60)
    assert lp.modularity(g, perm[labels]) == pytest.approx(
        lp.modularity(g, labels), abs=1e-12
    )


def test_weight_scaling_leaves_q_unchanged():
    raw = lp.from_arcs(5, [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    labels = np.array([0, 0, 1, 1, 1])
    qs = []
    for k in (1.0, 3.5, 100.0):
        scaled = lp.from_arcs(5, [0, 1, 2, 3], [1, 2, 3, 4], [k, 2 * k, 3 * k, 4 * k])
        g = lp.preprocess(scaled, unit_weights=False, self_loops=False)
        qs.append(lp.modularity(g, labels))
    assert qs[0] == pytest.approx(qs[1], abs=1e-9)
    assert qs[0] == pytest.approx(qs[2], abs=1e-9)


def test_value_range_on_random_assignments():
    rng = np.random.default_rng(3)
    g = lp.gnp(40, 0.3, seed=2)
    for _ in range(50):
        q = lp.modularity(g, rng.integers(0, 40, size=40))
        assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12


def test_contract_violations():
    g = lp.disjoint_cliques(2, 3)
    with pytest.raises(ValueError):
        lp.modularity(g, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        lp.modularity(g, np.full(6, 17, dtype=np.int64))
    with pytest.raises(ValueError):
        brute_modularity(lp.gnp(300, 0.01, seed=1), np.zeros(300, dtype=np.int64))


def test_labels_that_are_not_whole_numbers_are_rejected():
    g = lp.ring_of_cliques(4, 3)
    labels = np.repeat(np.arange(0, 12, 3), 3)
    # truncated, labels + 0.5 scored the integer partition's 0.6071
    for bad in (labels + 0.5, np.where(labels == 3, np.nan, labels)):
        with pytest.raises(ValueError, match="community labels must be whole numbers"):
            lp.modularity(g, bad)
    assert lp.modularity(g, labels.astype(np.float64)) == lp.modularity(g, labels)
    assert lp.modularity(g, labels.tolist()) == lp.modularity(g, labels)


def test_empty_graph_scores_zero():
    g = lp.preprocess(lp.from_arcs(0, [], [], []))
    assert lp.modularity(g, np.zeros(0, dtype=np.int64)) == 0.0


def test_modularity_matches_networkx():
    """Independent oracle, on graphs with and without self-loops.

    Self-loop convention: a stored loop arc (v, v) of weight w is one
    undirected loop.  It adds 2w to v's degree and to the total weight W,
    and 2w to the internal weight of v's community.  networkx counts a loop
    edge of weight w the same way: twice in the degree, once in the internal
    weight and in m = W / 2.  So each loop goes to networkx once, with its
    weight, and the two agree on every graph the detectors score (which
    carry one self-loop per vertex after `preprocess`).
    """
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    u = rng.integers(0, 30, 120)
    v = (u + rng.integers(1, 30, 120)) % 30  # no self-loops
    w = rng.choice([0.5, 1.0, 2.0, 3.5], 120)
    loops = rng.choice(30, 12, replace=False)
    graphs = [
        lp.preprocess(
            lp.from_arcs(30, np.r_[u, loops], np.r_[v, loops], np.r_[w, rng.uniform(0.1, 4.0, 12)]),
            unit_weights=False,
            self_loops=False,  # keeps these weighted loops, on 12 of the 30 vertices
        ),
    ]
    for self_loops in (False, True):
        graphs += [
            lp.gnp(40, 0.15, seed=3, self_loops=self_loops),
            lp.ring_of_cliques(6, 5, self_loops=self_loops),
            lp.preprocess(lp.from_arcs(30, u, v, w), unit_weights=False, self_loops=self_loops),
        ]
    for g in graphs:
        rows = lp.graph.arc_rows(g)
        G = nx.Graph()
        G.add_nodes_from(range(g.vertex_count))
        G.add_weighted_edges_from(
            (int(a), int(b), float(c))
            for a, b, c in zip(rows, g.neighbors, g.weights) if a <= b
        )
        assert nx.number_of_selfloops(G) == int((rows == g.neighbors).sum())
        for k in (1, 3, g.vertex_count):
            labels = rng.integers(0, k, g.vertex_count)
            communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
            want = nx.community.modularity(G, communities, weight="weight")
            assert lp.modularity(g, labels) == pytest.approx(want, abs=1e-12)
