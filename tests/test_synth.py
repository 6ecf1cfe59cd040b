import numpy as np
import pytest

import labelprop as lp
from helpers import brute_modularity, path, star
from labelprop.graph import arc_rows, check_symmetric, graphs_equal


def assert_canonical(g: lp.Graph):
    check_symmetric(g)
    rows = arc_rows(g)
    loops = np.bincount(rows[rows == g.neighbors], minlength=g.vertex_count)
    assert (loops == 1).all()
    assert (g.weights > 0).all()


def test_disjoint_cliques_shape():
    g = lp.disjoint_cliques(2, 3)
    assert g.vertex_count == 6
    # 3 edges per triangle, both directions, plus 6 self-loops
    assert g.edge_count == 2 * 3 * 2 + 6
    assert_canonical(g)
    assert graphs_equal(g, lp.disjoint_cliques(2, 3))


def test_ring_of_cliques_connected():
    g = lp.ring_of_cliques(4, 5)
    assert g.vertex_count == 20
    assert_canonical(g)
    assert graphs_equal(g, lp.ring_of_cliques(4, 5))
    # breadth-first reachability over the CSR arrays
    seen = np.zeros(20, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in g.neighbors[g.offsets[v]:g.offsets[v + 1]]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    assert seen.all()


def test_gnp_empty_cases():
    assert lp.gnp(0, 0.5).vertex_count == 0
    g = lp.gnp(5, 0.0)
    assert g.vertex_count == 5
    assert g.edge_count == 5  # self-loops only


def test_gnp_rejects_p_outside_unit_interval():
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        lp.gnp(10, 1.5)


def test_gnp_deterministic_per_seed():
    a = lp.gnp(100, 0.1, seed=3)
    b = lp.gnp(100, 0.1, seed=3)
    c = lp.gnp(100, 0.1, seed=4)
    assert_canonical(a)
    assert graphs_equal(a, b)
    assert not graphs_equal(a, c)


def test_gnp_density_is_plausible():
    n, p = 400, 0.05
    g = lp.gnp(n, p, seed=1)
    edges = (g.edge_count - n) / 2
    expected = p * n * (n - 1) / 2
    assert abs(edges - expected) < 5 * np.sqrt(expected)


def test_gnp_complete_when_p_is_one():
    g = lp.gnp(12, 1.0, seed=1)
    assert g.edge_count == 12 * 11 + 12


def test_star_and_path_shapes():
    hub = star(5)
    assert hub.vertex_count == 5
    assert hub.edge_count == 4 * 2 + 5
    line = path(4)
    assert line.vertex_count == 4
    assert line.edge_count == 3 * 2 + 4
    assert_canonical(hub)
    assert_canonical(line)
    assert graphs_equal(hub, star(5))
    assert graphs_equal(line, path(4))


def test_brute_modularity_guard():
    with pytest.raises(ValueError):
        brute_modularity(lp.gnp(257, 0.01, seed=1), np.zeros(257, dtype=np.int64))


def test_brute_matches_fast_on_generated_graphs():
    rng = np.random.default_rng(21)
    for g in (lp.disjoint_cliques(3, 4), star(10), lp.gnp(50, 0.2, seed=3)):
        labels = rng.integers(0, g.vertex_count, size=g.vertex_count)
        assert brute_modularity(g, labels) == pytest.approx(
            lp.modularity(g, labels), abs=1e-9
        )
