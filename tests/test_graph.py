import io
import subprocess
import sys

import numpy as np
import pytest

import labelprop as lp
from labelprop import graph as graph_module
from labelprop.graph import MAX_VERTICES, arc_rows, check_symmetric, graphs_equal


def mm(text: str) -> lp.Graph:
    return lp.load_graph(io.StringIO(text), "mtx")


def el(text: str) -> lp.Graph:
    return lp.load_graph(io.StringIO(text), "edgelist")


class TestMatrixMarket:
    def test_pattern_general(self):
        g = mm("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert (g.weights == 1.0).all()

    def test_symmetric_expansion_doubles_offdiagonal(self):
        g = mm("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n")
        assert g.edge_count == 6

    def test_symmetric_diagonal_kept_single(self):
        g = mm("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 1.0\n")
        assert g.edge_count == 3  # self-loop once, edge twice

    def test_integer_field(self):
        g = mm("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n")
        assert g.weights.tolist() == [3.0]

    def test_integer_field_rejects_fractional_weight(self):
        # a clean file takes the numpy parse, a comment line forces the line loop
        for comment, line in (("", 4), ("% note\n", 5)):
            text = f"%%MatrixMarket matrix coordinate integer general\n2 2 2\n{comment}1 2 3\n2 1 1.5\n"
            with pytest.raises(lp.GraphParseError) as err:
                mm(text)
            assert str(err.value) == f"line {line}: non-integer weight 1.5 in an integer file"
        assert mm(text.replace("integer", "real")).weights.tolist() == [3.0, 1.5]

    def test_duplicates_merge_by_sum(self):
        g = mm("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n1 2 2.5\n")
        assert g.edge_count == 1
        assert g.weights.tolist() == [4.0]

    def test_index_out_of_bounds_names_line(self):
        for entry in ("4 1", "1 4", "0 1", "1 0"):
            with pytest.raises(lp.GraphParseError, match="line 3"):
                mm(f"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n{entry}\n")

    def test_malformed_header(self):
        with pytest.raises(lp.GraphParseError, match="line 1"):
            mm("%%MatrixMustard matrix coordinate pattern general\n1 1 0\n")

    def test_unsupported_symmetry(self):
        with pytest.raises(lp.GraphParseError, match="symmetry"):
            mm("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n")

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file, expected MatrixMarket header"),
        ("%%MatrixMarket matrix array real general\n1 1\n",
         "line 1: unsupported MatrixMarket type 'matrix' 'array'"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
         "line 1: unsupported field type 'complex'"),
        ("%%MatrixMarket matrix coordinate pattern general\n3 3\n",
         "line 2: expected 'rows cols entries', got '3 3'"),
        ("%%MatrixMarket matrix coordinate pattern general\n3 x 1\n",
         "line 2: non-integer size line '3 x 1'"),
        ("%%MatrixMarket matrix coordinate pattern general\n3 -3 1\n",
         "line 2: negative value in size line '3 -3 1'"),
        ("%%MatrixMarket matrix coordinate pattern general\n% no size line\n",
         "line 2: missing size line"),
    ], ids=["empty", "array", "complex", "two-fields", "non-integer", "negative", "missing"])
    def test_bad_header_or_size_line_names_the_line(self, text, message):
        with pytest.raises(lp.GraphParseError) as err:
            mm(text)
        assert str(err.value) == message

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown graph format 'bogus'"):
            lp.load_graph(io.StringIO("0 1\n"), fmt="bogus")

    def test_non_positive_weight_rejected(self):
        # a clean file takes the numpy parse, a comment line forces the line loop
        for weight in ("0.0", "-1", "nan", "inf", "-inf", "1e400"):
            for comment, line in (("", 4), ("% note\n", 5)):
                text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n{comment}1 2 1.0\n2 1 {weight}\n"
                with pytest.raises(lp.GraphParseError, match=f"line {line}: non-positive or non-finite"):
                    mm(text)

    def test_size_beyond_vertex_bound_rejected(self):
        with pytest.raises(lp.GraphParseError, match="line 2: size 3037000500 exceeds"):
            mm(f"%%MatrixMarket matrix coordinate pattern general\n{MAX_VERTICES + 1} 1 0\n")

    def test_huge_declared_count_allocates_nothing(self):
        with pytest.raises(lp.GraphParseError, match="ended after 1 of 1000000000000 entries"):
            mm("%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000\n1 2\n")

    def test_truncated_entries(self):
        with pytest.raises(lp.GraphParseError, match="ended after"):
            mm("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n")

    def test_extra_entries(self):
        with pytest.raises(lp.GraphParseError, match="more entries"):
            mm("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n")

    def test_loading_twice_gives_identical_graphs(self):
        text = "%%MatrixMarket matrix coordinate real general\n4 4 3\n1 2 1.0\n3 4 2.0\n1 1 5.0\n"
        assert graphs_equal(mm(text), mm(text))


class TestEdgeList:
    def test_basic(self):
        g = el("# comment\n0 1\n1 2\n")
        assert g.vertex_count == 3
        assert g.edge_count == 2

    def test_explicit_weight(self):
        g = el("0 1 2.5\n")
        assert g.weights.tolist() == [2.5]

    def test_non_numeric_token_names_line(self):
        with pytest.raises(lp.GraphParseError, match="line 1"):
            el("0 x\n")

    def test_negative_index(self):
        with pytest.raises(lp.GraphParseError, match="line 1: vertex index -1 below 0"):
            el("0 -1\n")

    def test_non_positive_weight(self):
        # a clean file takes the numpy parse, a comment line forces the line loop
        for weight in ("-2.0", "0", "nan", "inf", "-inf", "1e400"):
            for comment, line in (("", 2), ("# note\n", 3)):
                with pytest.raises(lp.GraphParseError, match=f"line {line}: non-positive or non-finite"):
                    el(f"{comment}0 1 1.0\n1 2 {weight}\n")

    @pytest.mark.parametrize("vertex", [str(MAX_VERTICES), "99999999999999999999"])
    def test_vertex_beyond_bound_rejected(self, vertex):
        with pytest.raises(lp.GraphParseError, match=f"line 2: vertex index {vertex} exceeds"):
            el(f"0 1\n0 {vertex}\n")

    def test_non_utf8_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n\xff\xfe0 1\n")
        with pytest.raises(lp.GraphParseError, match="line 2: not valid UTF-8"):
            lp.load_graph(path)
        with pytest.raises(lp.GraphParseError, match="line 2: not valid UTF-8"):
            lp.load_graph(path, "edgelist")

    def test_crlf_file_matches_lf_text(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"0 1 2.0\r\n1 2 3.0\r2 0 1.0\r\n")
        assert graphs_equal(lp.load_graph(path, "edgelist"), el("0 1 2.0\n1 2 3.0\n2 0 1.0\n"))

    def test_mixed_widths_and_python_literals_use_the_line_loop(self):
        g = el("0 1\n1 2 2.5\n1_0 0\n")
        assert g.vertex_count == 11
        assert sorted(g.weights.tolist()) == [1.0, 1.0, 2.5]

    def test_empty_stream_is_empty_graph(self):
        g = el("")
        assert g.vertex_count == 0
        assert g.edge_count == 0


def test_vertex_bound_is_the_largest_safe_for_int64_keys():
    int64_max = np.iinfo(np.int64).max
    assert MAX_VERTICES * MAX_VERTICES - 1 <= int64_max
    assert (MAX_VERTICES + 1) * (MAX_VERTICES + 1) - 1 > int64_max
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        lp.from_arcs(MAX_VERTICES + 1, [], [], [])


def test_from_arcs_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count -1 is negative"):
        lp.from_arcs(-1, [], [], [])


def test_from_arcs_rejects_a_vertex_count_that_is_not_an_integer():
    with pytest.raises(TypeError):
        lp.from_arcs(2.7, [0], [1], [1.0])
    assert lp.from_arcs(np.int64(2), [0], [1], [1.0]).vertex_count == 2


@pytest.mark.parametrize("u, v", [([0], [3]), ([3], [0]), ([-1], [0]), ([0], [-1])])
def test_from_arcs_rejects_endpoints_outside_the_vertex_range(u, v):
    # an out-of-range endpoint would otherwise fold into another arc's u * n + v key
    with pytest.raises(ValueError, match=r"arc endpoints must lie in \[0, 3\)"):
        lp.from_arcs(3, u, v, [1.0])


@pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
def test_from_arcs_rejects_weights_that_are_not_finite_and_positive(weight):
    # a zero, negative or NaN weight made rak_detect score modularity nan
    with pytest.raises(ValueError, match="arc weights must be finite and positive"):
        lp.from_arcs(3, [0, 1], [1, 2], [1.0, weight])


@pytest.mark.parametrize("u, v, w", [
    ([0], [1], [1.0, 2.0]),  # an extra weight was ignored
    ([0, 1], [1, 2], [1.0]),
    ([0, 1], [1], [1.0, 1.0]),
])
def test_from_arcs_rejects_arrays_of_different_lengths(u, v, w):
    with pytest.raises(ValueError, match="u, v and w must have the same length"):
        lp.from_arcs(3, u, v, w)


@pytest.mark.parametrize("comment", [False, True], ids=["clean", "after-comment"])
@pytest.mark.parametrize("mtx, edge", [
    (("1 2 3 4", "expected 3 fields, got '1 2 3 4'"),
     ("0 1 2 3", "expected 2 or 3 fields, got '0 1 2 3'")),
    (("1 x 1.0", "non-numeric token in '1 x 1.0'"),
     ("0 x 1.0", "non-numeric token in '0 x 1.0'")),
    (("0 2 1.0", "vertex index 0 below 1 in '0 2 1.0'"),
     ("-1 2 1.0", "vertex index -1 below 0 in '-1 2 1.0'")),
    (("1 4 1.0", "vertex index 4 exceeds 3"),
     (f"0 {MAX_VERTICES} 1.0", f"vertex index {MAX_VERTICES} exceeds {MAX_VERTICES - 1}")),
    (("1 2 -1", "non-positive or non-finite weight -1.0"),
     ("0 1 -1", "non-positive or non-finite weight -1.0")),
], ids=["field-count", "non-numeric", "below-range", "above-range", "weight"])
def test_both_formats_share_one_message_per_rule(mtx, edge, comment):
    # a clean file tries the numpy parse first, a comment line goes straight to the loop
    for load, head, marker, good, (entry, message), line in (
        (mm, "%%MatrixMarket matrix coordinate real general\n3 3 2\n", "%", "1 2 1.0", mtx, 4),
        (el, "", "#", "0 1 1.0", edge, 2),
    ):
        note = f"{marker} note\n" if comment else ""
        with pytest.raises(lp.GraphParseError) as err:
            load(f"{head}{note}{good}\n{entry}\n")
        assert str(err.value) == f"line {line + comment}: {message}"


class TestSniff:
    """``load_graph`` picks the format by one rule for paths and streams."""

    TRIANGLE = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
    @pytest.mark.parametrize(
        "text", [TRIANGLE, TRIANGLE.lower(), "0 1\n1 2\n"], ids=["mtx", "mtx-lower", "edge-list"]
    )
    def test_paths_and_streams_read_alike(self, tmp_path, text, mark):
        path = tmp_path / "g.txt"
        path.write_text(mark + text, encoding="utf-8")
        want = el(text) if text[0].isdigit() else mm(text)
        for source in (path, io.StringIO(mark + text)):
            assert graphs_equal(lp.load_graph(source), want)

    def test_header_after_whitespace_is_not_sniffed(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text(" " + self.TRIANGLE)
        for source in (path, io.StringIO(" " + self.TRIANGLE)):
            with pytest.raises(lp.GraphParseError, match="line 1: expected 2 or 3 fields"):
                lp.load_graph(source)


class TestNumericPath:
    """Clean files take the one-pass numpy parse; the line loop is not entered."""

    @pytest.fixture()
    def no_loop(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("line loop entered on a clean file")

        monkeypatch.setattr(graph_module, "_entry_loop", fail)

    def test_edge_list(self, no_loop):
        g = el("0 1\n\n1 2\n  2 0  \n0 1\n")
        assert g.vertex_count == 3
        assert g.weights.tolist() == [2.0, 1.0, 1.0]

    def test_weighted_edge_list(self, no_loop):
        assert el("0 1 0.5\n1 0 1.5\n").weights.tolist() == [0.5, 1.5]

    @pytest.mark.parametrize("field", ["pattern", "real", "integer"])
    def test_matrix_market(self, no_loop, field):
        entries = "2 1\n3 2\n" if field == "pattern" else "2 1 2\n3 2 3\n"
        g = mm(f"%%MatrixMarket matrix coordinate {field} symmetric\n% note\n3 3 2\n{entries}")
        assert g.edge_count == 4


class TestPreprocess:
    def test_directed_arc_becomes_symmetric_with_self_loops(self):
        pre = lp.preprocess(lp.from_arcs(2, [0], [1], [1.0]))
        arcs = sorted(zip(arc_rows(pre).tolist(), pre.neighbors.tolist()))
        assert arcs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        check_symmetric(pre)

    def test_existing_self_loop_replaced_by_unit(self):
        pre = lp.preprocess(lp.from_arcs(1, [0], [0], [7.0]))
        assert pre.weights.tolist() == [1.0]
        assert pre.total_weight == 2.0

    def test_empty_graph(self):
        pre = lp.preprocess(lp.from_arcs(0, [], [], []))
        assert pre.vertex_count == 0
        assert pre.edge_count == 0

    def test_idempotent(self):
        g = lp.gnp(60, 0.2, seed=3)
        assert graphs_equal(g, lp.preprocess(g))
        weighted = lp.preprocess(
            lp.from_arcs(4, [0, 1, 2], [1, 2, 3], [2.0, 3.0, 4.0]),
            unit_weights=False,
        )
        assert graphs_equal(weighted, lp.preprocess(weighted, unit_weights=False))

    def test_keep_weights_and_no_self_loops(self):
        pre = lp.preprocess(
            lp.from_arcs(3, [0, 1], [1, 2], [2.0, 3.0]),
            unit_weights=False,
            self_loops=False,
        )
        assert sorted(pre.weights.tolist()) == [2.0, 2.0, 3.0, 3.0]
        assert (arc_rows(pre) != pre.neighbors).all()

    def test_both_directions_in_input_collapse_to_one_edge(self):
        pre = lp.preprocess(lp.from_arcs(2, [0, 1], [1, 0], [1.0, 1.0]))
        # 2 arcs for the edge + 2 self-loops
        assert pre.edge_count == 4

    def test_every_vertex_gets_exactly_one_self_loop(self):
        g = lp.gnp(40, 0.1, seed=1)
        rows = arc_rows(g)
        loops = np.bincount(rows[rows == g.neighbors], minlength=40)
        assert (loops == 1).all()


def lexsort_merge(n, u, v, w):
    """CSR arrays and total weight as from_arcs built them with a lexsort on (u, v)."""
    u, v, w = (np.asarray(a) for a in (u, v, w))
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], w[order]
    starts = np.flatnonzero(np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])][: u.size])
    w = np.add.reduceat(w, starts)
    u, v = u[starts], v[starts]
    offsets = np.r_[0, np.cumsum(np.bincount(u, minlength=n))]
    return offsets, v, w, float(w.sum() + w[u == v].sum())


def two_sort_preprocess(graph, unit_weights, self_loops):
    """preprocess as it was before the one-sort rewrite: a stable argsort over
    undirected pairs keeps the larger weight, then `lexsort_merge` builds the CSR."""
    n = graph.vertex_count
    rows, cols, w = arc_rows(graph), graph.neighbors, graph.weights
    diag = rows == cols
    ru, rv, rw = rows[~diag], cols[~diag], w[~diag]
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, rw = key[order], lo[order], hi[order], rw[order]
    if key.size:
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        rw = np.maximum.reduceat(rw, starts)
        lo, hi = lo[starts], hi[starts]
    if unit_weights:
        rw = np.ones_like(rw)
    if self_loops:
        loop_u, loop_w = np.arange(n), np.ones(n)
    else:
        loop_u = rows[diag]
        loop_w = np.ones_like(w[diag]) if unit_weights else w[diag]
    return lexsort_merge(
        n,
        np.concatenate([lo, hi, loop_u]),
        np.concatenate([hi, lo, loop_u]),
        np.concatenate([rw, rw, loop_w]),
    )


def csr_parts(g):
    return g.offsets, g.neighbors, g.weights, g.total_weight


def assert_same_csr(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3]


def weighted_random_arcs(n=300, m=3000, seed=7):
    """Directed arcs with repeats, self-loops and weights that differ by direction."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = np.where(rng.random(m) < 0.05, u, rng.integers(0, n, m))
    w = rng.choice([0.1, 0.2, 0.3, 1.5, 1e16], size=m) * rng.integers(1, 4, m)
    return n, u, v, w


class TestSortOnce:
    """from_arcs and preprocess give the arrays the lexsort / two-sort code gave."""

    def test_from_arcs_sums_duplicates_in_input_order(self):
        n, u, v, w = weighted_random_arcs(n=20)  # ~7 repeats per arc: sums depend on order
        assert_same_csr(csr_parts(lp.from_arcs(n, u, v, w)), lexsort_merge(n, u, v, w))

    def test_from_arcs_without_repeats_matches_lexsort(self):
        n, u, v, w = weighted_random_arcs(n=2000)
        key = np.unique(u * n + v, return_index=True)[1]  # one arc per key, input order kept
        u, v, w = u[key], v[key], w[key]
        shuffle = np.random.default_rng(1).permutation(u.size)
        u, v, w = u[shuffle], v[shuffle], w[shuffle]
        assert_same_csr(csr_parts(lp.from_arcs(n, u, v, w)), lexsort_merge(n, u, v, w))

    @pytest.mark.parametrize("self_loops", [True, False])
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_preprocess_matches_two_sorts(self, unit_weights, self_loops):
        ring = lp.ring_of_cliques(16, 6, self_loops=False)
        forward = arc_rows(ring) < ring.neighbors
        raws = [
            lp.from_arcs(ring.vertex_count, arc_rows(ring)[forward], ring.neighbors[forward],
                         np.arange(1.0, forward.sum() + 1)),
            lp.from_arcs(*weighted_random_arcs()),
        ]
        for raw in raws:
            got = lp.preprocess(raw, unit_weights=unit_weights, self_loops=self_loops)
            assert_same_csr(csr_parts(got), two_sort_preprocess(raw, unit_weights, self_loops))

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("self_loops", [True, False])
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_graphs_without_arcs_match_the_oracles(self, n, unit_weights, self_loops):
        raw = lp.from_arcs(n, [], [], [])
        none = np.empty(0, np.int64)
        assert_same_csr(csr_parts(raw), lexsort_merge(n, none, none, np.empty(0)))
        got = lp.preprocess(raw, unit_weights=unit_weights, self_loops=self_loops)
        assert_same_csr(csr_parts(got), two_sort_preprocess(raw, unit_weights, self_loops))


class TestStableOrder:
    """_stable_order is the stable argsort, packed or not."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3, graph_module._PACKED_FROM, 5000])
    @pytest.mark.parametrize("top", [1, 7, 2**20, 2**62 - 1, 2**63 - 1])
    def test_matches_the_stable_argsort(self, size, top):
        rng = np.random.default_rng(size)
        # few distinct keys, so most repeat; a few keys, or keys near 2**62
        # and above, which leave no room for the index, take the argsort
        key = np.array(rng.choice([0, 1, top // 3, top - 1, top], size), dtype=np.int64)
        order, sorted_key = graph_module._stable_order(key)
        want = np.argsort(key, kind="stable")
        assert order.dtype == sorted_key.dtype == np.int64
        assert np.array_equal(order, want)
        assert np.array_equal(sorted_key, key[want])


class TestDegreeWeight:
    def test_triangle_with_self_loops(self, two_triangles):
        assert lp.degree_weights(two_triangles).tolist() == [4.0] * 6

    def test_isolated_with_self_loop(self):
        g = lp.gnp(1, 0.0)
        assert lp.degree_weights(g).tolist() == [2.0]

    def test_isolated_without_self_loop(self):
        g = lp.preprocess(lp.from_arcs(1, [], [], []), self_loops=False)
        assert lp.degree_weights(g).tolist() == [0.0]

    def test_degree_sum_equals_total_weight(self):
        for g in (
            lp.gnp(50, 0.1, seed=2),
            lp.preprocess(lp.from_arcs(3, [0, 1, 0], [1, 2, 0], [2.0, 3.0, 5.0]), unit_weights=False, self_loops=False),
        ):
            degs = lp.degree_weights(g)
            assert degs.sum() == pytest.approx(g.total_weight, abs=1e-9)
            for v in range(g.vertex_count):  # each row on its own, a self-loop twice
                lo, hi = g.offsets[v], g.offsets[v + 1]
                row, wts = g.neighbors[lo:hi], g.weights[lo:hi]
                assert degs[v] == wts.sum() + wts[row == v].sum()


class TestInvariants:
    def test_csr_structure(self):
        g = lp.gnp(80, 0.1, seed=5)
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.edge_count
        assert (np.diff(g.offsets) >= 0).all()
        assert g.neighbors.min() >= 0
        assert g.neighbors.max() < g.vertex_count
        assert (g.weights > 0).all()

    def test_adjacency_sorted_within_rows(self):
        g = lp.gnp(80, 0.1, seed=5)
        for v in range(g.vertex_count):
            row = g.neighbors[g.offsets[v]:g.offsets[v + 1]]
            assert (np.diff(row) > 0).all()

    def test_check_symmetric_rejects_raw_directed(self):
        with pytest.raises(ValueError):
            check_symmetric(lp.from_arcs(2, [0], [1], [1.0]))

    def test_check_symmetric_rejects_reverse_weights_that_differ(self):
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(lp.from_arcs(2, [0, 1], [1, 0], [1.0, 2.0]))

    def test_check_symmetric_accepts_reverse_weights_that_differ_by_rounding(self):
        # duplicates sum in input order: 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1
        g = lp.from_arcs(2, [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0.1, 0.2, 0.3, 0.3, 0.2, 0.1])
        assert g.weights[0] != g.weights[1]
        check_symmetric(g)

    @pytest.mark.parametrize("n, u, v", [(0, [], []), (3, [], []), (2, [1], [1])],
                             ids=["empty", "no-arcs", "self-loop"])
    def test_check_symmetric_accepts_graphs_without_unpaired_arcs(self, n, u, v):
        check_symmetric(lp.from_arcs(n, u, v, [2.0] * len(u)))

    def test_only_preprocess_marks_graphs_symmetric(self):
        raw = lp.from_arcs(3, [0, 1], [1, 0], [1.0, 1.0])
        assert not raw.symmetric
        assert lp.preprocess(raw).symmetric
        assert lp.preprocess(lp.from_arcs(2, [], [], []), self_loops=False).symmetric

    def test_preprocessed_graph_never_reaches_check_symmetric(self, monkeypatch):
        from labelprop import copra, rak, slpa

        def fail(graph):
            raise AssertionError("check_symmetric called on a preprocessed graph")

        for module in (rak, copra, slpa):
            monkeypatch.setattr(module, "check_symmetric", fail)
        g = lp.ring_of_cliques(4, 4)
        for strict in (True, False):
            lp.rak_detect(g, lp.RakParams(strict=strict, seed=1))
            lp.slpa_detect(g, lp.SlpaParams(memory_size=4, strict=strict, seed=1))
        lp.copra_detect(g, lp.CopraParams(seed=1))
        with pytest.raises(AssertionError, match="preprocessed"):
            lp.rak_detect(lp.from_arcs(2, [0, 1], [1, 0], [1.0, 1.0]))

    @pytest.mark.parametrize("detect", ["rak_detect", "copra_detect", "slpa_detect"])
    def test_detectors_check_symmetry_under_python_optimize(self, detect):
        # python -O compiles out assert and __debug__ blocks; the check is neither
        code = (
            "import labelprop as lp\n"
            "try:\n"
            f"    lp.{detect}(lp.from_arcs(3, [0, 1], [1, 2], [1.0, 1.0]))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print(__debug__)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "graph is not symmetric; run preprocess() before detecting", "False"
        ]
