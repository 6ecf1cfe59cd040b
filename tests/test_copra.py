from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import labelprop as lp
from labelprop import copra
from conftest import copra_row_bounds, partition_matches
from helpers import copra_run, dense_tally, stream_row
from test_kernel_args import GRAPHS


class TestDetect:
    def test_single_label_mode_on_two_triangles(self, two_triangles):
        result = lp.copra_detect(two_triangles, lp.CopraParams(max_labels=1, seed=1))
        assert partition_matches(result.assignment, 2, 3)

    def test_lone_vertex_joins_own_community(self):
        g = lp.gnp(1, 0.0)
        result = lp.copra_detect(g, lp.CopraParams(seed=1))
        assert result.assignment.tolist() == [0]
        assert result.iterations == 1

    def test_empty_graph(self):
        g = lp.preprocess(lp.from_arcs(0, [], [], []))
        result = lp.copra_detect(g, lp.CopraParams(max_labels=3))
        assert result.iterations == 0
        assert result.assignment.size == 0
        assert result.modularity == 0.0
        best, iterations, (labs, bels, sizes) = copra_run(g, lp.CopraParams(max_labels=3))
        assert iterations == 0 and best.size == 0
        assert labs.shape == bels.shape == (0, 3)
        assert sizes.shape == (0,)

    def test_clique_recovery_both_label_caps(self, eight_cliques):
        for max_labels in (1, 8):
            for seed in range(1, 11):
                result = lp.copra_detect(
                    eight_cliques, lp.CopraParams(max_labels=max_labels, seed=seed)
                )
                assert partition_matches(result.assignment, 8, 6), (max_labels, seed)

    def test_invariants_hold_after_every_update(self):
        g = lp.gnp(300, 0.03, seed=7)
        for max_labels in (1, 4, 8):
            err, smallest, largest, _ = copra_row_bounds(
                g, lp.CopraParams(max_labels=max_labels, seed=3)
            )
            assert err <= 1e-9  # max | sum(belongings) - 1 |
            assert smallest >= 1
            assert largest <= max_labels

    def test_max_labels_one_means_always_singleton(self):
        g = lp.gnp(200, 0.05, seed=2)
        _, smallest, largest, sizes = copra_row_bounds(g, lp.CopraParams(max_labels=1, seed=5))
        assert smallest == 1 and largest == 1
        assert (sizes == 1).all()

    def test_tolerance_monotonic_and_prefix(self):
        # a held sweep run goes on from the loose run's state, so the tight
        # run's first iterations must be the loose run's, label rows included
        for g in (lp.gnp(400, 0.02, seed=2), lp.ring_of_cliques(8, 5)):
            for max_labels in (1, 8):
                params = lp.CopraParams(max_labels=max_labels, seed=4)
                loose = copra_run(g, replace(params, tolerance=0.1))
                tight = copra_run(g, replace(params, tolerance=0.0001))
                assert tight[1] >= loose[1]
                replay = copra_run(g, replace(params, tolerance=0.0001, max_iterations=loose[1]))
                assert replay[1] == loose[1]
                for a, b in zip((loose[0], *loose[2]), (replay[0], *replay[2])):
                    assert np.array_equal(a, b), max_labels

    @pytest.mark.skipif(lp.JIT_ENABLED, reason="label rows run only interpreted")
    def test_label_rows_refill_their_stream_row_mid_run(self, monkeypatch):
        # one label per vertex on a sparse graph ties often enough to read
        # past the 300-value stream row; the cursor only falls at a refill
        g = lp.gnp(300, 0.004, seed=2)
        params = lp.CopraParams(max_labels=1, seed=4, tolerance=1e-9, max_iterations=100)
        held = lp.Held(g)
        cursors = []
        for cap in (30, 100):
            lp.copra_detect(g, replace(params, max_iterations=cap), held)
            assert isinstance(held.run, copra._Rows) and len(held.run.stream[0]) == 300
            cursors.append(held.run.stream[1][0])
        assert cursors[1] < cursors[0]
        rows = copra_run(g, params)
        assert rows[1] == 100
        monkeypatch.setattr(copra, "JIT_ENABLED", True)  # the kernel, as compiled runs launch it
        launched = copra_run(g, params)
        assert rows[1] == launched[1]
        for a, b in zip((rows[0], *rows[2]), (launched[0], *launched[2])):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
        lp.JIT_ENABLED, reason="racy under compiled threads"
    ))])
    @pytest.mark.parametrize("max_labels", [1, 3, 8])
    @pytest.mark.parametrize("graph_name", list(GRAPHS))
    def test_kernel_reads_only_published_live_pairs(self, graph_name, max_labels, workers):
        # the kernel's state starts as sentinels (a label no tally can index,
        # belonging NaN) wherever a run does not write it; reading one past
        # a published row's live count would fail or change the run
        def poisoned(size, dtype):
            return np.full(size, 2**62 if np.dtype(dtype).kind == "i" else np.nan, dtype=dtype)

        g = GRAPHS[graph_name]()
        params = lp.CopraParams(max_labels=max_labels, seed=4, workers=workers)
        with mock.patch.object(copra, "JIT_ENABLED", False):
            runs = [copra_run(g, params)]  # the label rows
        with mock.patch.object(copra, "JIT_ENABLED", True):
            runs.append(copra_run(g, params))
            with mock.patch.object(copra, "state_zeros", poisoned):
                runs.append(copra_run(g, params))
        rows, *launches = runs
        for launched in launches:
            assert launched[1] == rows[1]
            for a, b in zip((rows[0], *rows[2]), (launched[0], *launched[2])):
                assert np.array_equal(a, b)

    def test_iteration_count_capped(self):
        g = lp.gnp(200, 0.05, seed=2)
        result = lp.copra_detect(g, lp.CopraParams(max_iterations=3, seed=1))
        assert result.iterations <= 3

    def test_asymmetric_graph_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lp.copra_detect(lp.from_arcs(2, [0], [1], [1.0]))

    def test_parallel_quality_close_to_sequential(self):
        g = lp.gnp(2000, 0.01, seed=9)
        seq = lp.copra_detect(g, lp.CopraParams(seed=1, max_iterations=30))
        for workers in (2, 4):
            par = lp.copra_detect(g, lp.CopraParams(seed=1, workers=workers, max_iterations=30))
            assert abs(par.modularity - seq.modularity) <= 0.05
            assert par.assignment.min() >= 0 and par.assignment.max() < 2000


def threshold(labels, weights, max_labels, stream=None):
    """(labels, belongings) of the row the kernels' threshold step keeps
    from one tally, drawing from ``stream`` (seed 1's row by default)."""
    row, cursors = stream or stream_row(1)
    out_l = np.zeros(max_labels, dtype=np.int64)
    out_b = np.zeros(max_labels)
    k = copra._select_labels(
        *dense_tally(labels, weights), max_labels, row, cursors, 0, out_l, out_b, 0
    )
    return out_l[:k], out_b[:k]


def best(labels, belongings):
    """`_best_of_row` on one row, which the kernel keeps sorted by label id."""
    return copra._best_of_row(np.array(labels), np.array(belongings), 0, len(labels))


class TestCollectAndThreshold:
    def test_all_above_threshold_kept_as_is(self):
        labels, bels = threshold([10, 20], [0.6, 0.4], 4)
        assert labels.tolist() == [10, 20]
        assert bels.tolist() == pytest.approx([0.6, 0.4])

    def test_below_threshold_dropped_and_renormalized(self):
        labels, bels = threshold([1, 2, 3], [0.5, 0.3, 0.2], 4)
        assert labels.tolist() == [1, 2]
        assert bels.tolist() == pytest.approx([0.625, 0.375])

    def test_nothing_qualifies_falls_back_to_one_random_max(self):
        seen = set()
        stream = stream_row(5)
        for _ in range(200):
            labels, bels = threshold([0, 1, 2, 3, 4], [0.2] * 5, 4, stream)
            assert labels.size == 1
            assert bels.tolist() == [1.0]
            seen.add(int(labels[0]))
        assert seen == {0, 1, 2, 3, 4}

    def test_path_midpoint_first_update(self):
        # path 0-1-2: vertex 1 first accumulates {0: w, 2: w}; with a cap of
        # two labels both survive at belonging 0.5
        labels, bels = threshold([0, 2], [1.0, 1.0], 2)
        assert labels.tolist() == [0, 2]
        assert bels.tolist() == pytest.approx([0.5, 0.5])

    def test_result_sorted_by_label_id(self):
        labels, _ = threshold([9, 1, 5], [0.4, 0.3, 0.3], 4)
        assert labels.tolist() == sorted(labels.tolist())


class TestBestLabel:
    def test_unique_max(self):
        assert best([2, 7], [0.4, 0.6]) == 7

    def test_tie_takes_smallest_id(self):
        assert best([2, 7], [0.5, 0.5]) == 2

    def test_singleton(self):
        assert best([3], [1.0]) == 3


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lp.CopraParams(max_labels=0)
        with pytest.raises(ValueError):
            lp.CopraParams(tolerance=0.0)
        with pytest.raises(ValueError):
            lp.CopraParams(workers=0)
