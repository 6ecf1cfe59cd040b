from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import labelprop as lp
from labelprop import slpa
from conftest import partition_matches, requires_jit
from helpers import slpa_run


class TestDetect:
    def test_isolated_vertices_fall_back_to_own_label(self):
        g = lp.gnp(6, 0.0)
        labels, iterations, (slots, filled) = slpa_run(
            g, lp.SlpaParams(memory_size=8, seed=3)
        )
        assert np.array_equal(labels, np.arange(6))
        # every append repeats the last one, but first-iteration repeats never count
        assert iterations == 2
        # every append was the fallback: the owner's current modal label
        for v in range(6):
            assert set(slots[v, : filled[v]].tolist()) == {v}

    def test_empty_graph(self):
        g = lp.preprocess(lp.from_arcs(0, [], [], []))
        result = lp.slpa_detect(g, lp.SlpaParams(memory_size=5))
        assert result.iterations == 0
        assert result.assignment.size == 0
        assert result.modularity == 0.0
        labels, iterations, (slots, filled) = slpa_run(g, lp.SlpaParams(memory_size=5))
        assert iterations == 0 and labels.size == 0
        assert slots.shape == (0, 5)
        assert filled.shape == (0,)

    def test_memory_size_two_forces_single_iteration(self, two_triangles):
        labels, iterations, (slots, filled) = slpa_run(
            two_triangles, lp.SlpaParams(memory_size=2, seed=1)
        )
        assert iterations == 1
        assert set(filled.tolist()) == {2}

    def test_memory_law(self, two_triangles):
        for ms in (2, 5, 20):
            _, iterations, (_, filled) = slpa_run(
                two_triangles, lp.SlpaParams(memory_size=ms, tolerance=0.001, seed=1)
            )
            assert iterations <= ms - 1
            assert set((filled - 1).tolist()) == {iterations}

    def test_tolerance_monotonic_and_prefix(self):
        # a held run goes on from the loose run's memories, so the tight
        # run's memories must begin with the loose run's filled slots
        for g in (lp.gnp(400, 0.02, seed=2), lp.ring_of_cliques(8, 5)):
            for strict in (True, False):
                params = lp.SlpaParams(memory_size=16, strict=strict, seed=4)
                _, loose_it, (loose, loose_filled) = slpa_run(g, replace(params, tolerance=0.5))
                _, tight_it, (tight, tight_filled) = slpa_run(g, replace(params, tolerance=0.0001))
                assert tight_it >= loose_it
                assert (loose_filled == loose_it + 1).all()
                assert (tight_filled == tight_it + 1).all()
                assert np.array_equal(tight[:, : loose_it + 1], loose[:, : loose_it + 1]), strict

    def test_a_larger_memory_extends_the_run(self):
        # speakers draw stream[k] % filled[u] and never read memory_size, so
        # a run with memory M' > M makes the M run's iterations first: every
        # memory of the M' run begins with the M run's filled slots
        graphs = (lp.ring_of_cliques(8, 5), lp.gnp(300, 0.03, seed=2), lp.disjoint_cliques(6, 4))
        for g in graphs:
            for strict in (True, False):
                params = lp.SlpaParams(strict=strict, workers=1, seed=3)
                for small, large in ((2, 3), (4, 16), (8, 9)):
                    _, it, (short, short_filled) = slpa_run(g, replace(params, memory_size=small))
                    _, _, (long, long_filled) = slpa_run(g, replace(params, memory_size=large))
                    assert (short_filled == it + 1).all()
                    assert (long_filled >= it + 1).all()
                    assert np.array_equal(long[:, : it + 1], short[:, : it + 1]), (small, strict)

    def test_two_triangles_recovered(self, two_triangles):
        result = lp.slpa_detect(two_triangles, lp.SlpaParams(memory_size=20, strict=True, seed=2))
        assert partition_matches(result.assignment, 2, 3)

    def test_appended_labels_were_spoken_or_own(self, two_triangles):
        g = two_triangles
        labels, iterations, (slots, filled) = slpa_run(
            g, lp.SlpaParams(memory_size=10, tolerance=0.001, seed=4)
        )
        neighbors = [
            set(g.neighbors[g.offsets[v]:g.offsets[v + 1]].tolist()) - {v}
            for v in range(g.vertex_count)
        ]
        for v in range(g.vertex_count):
            for t in range(1, filled[v]):
                spoken_pool = set()
                for u in neighbors[v]:
                    spoken_pool.update(slots[u, : t + 1].tolist())
                own_pool = set(slots[v, :t].tolist())
                assert slots[v, t] in spoken_pool | own_pool

    def test_strict_sequential_is_deterministic(self):
        g = lp.gnp(400, 0.02, seed=4)
        a = lp.slpa_detect(g, lp.SlpaParams(memory_size=12, strict=True, seed=7)).assignment
        b = lp.slpa_detect(g, lp.SlpaParams(memory_size=12, strict=True, seed=7)).assignment
        assert a.tobytes() == b.tobytes()

    def test_labels_stay_in_range(self):
        g = lp.gnp(300, 0.03, seed=6)
        result = lp.slpa_detect(g, lp.SlpaParams(memory_size=8, seed=1))
        assert result.assignment.min() >= 0
        assert result.assignment.max() < 300

    def test_parallel_quality_close_to_sequential(self):
        g = lp.gnp(2000, 0.01, seed=3)
        seq = lp.slpa_detect(g, lp.SlpaParams(memory_size=10, seed=1))
        for workers in (2, 4):
            par = lp.slpa_detect(g, lp.SlpaParams(memory_size=10, seed=1, workers=workers))
            assert abs(par.modularity - seq.modularity) <= 0.05

    @requires_jit
    def test_runtime_grows_with_memory_size(self, warm_kernels):
        g = lp.gnp(2000, 2 * 10_500 / (2000 * 1999), seed=5)
        assert (g.edge_count - 2000) // 2 >= 10_000
        params = dict(tolerance=1e-9, strict=True, seed=1)
        lp.slpa_detect(g, lp.SlpaParams(memory_size=5, **params))  # warm this shape
        fast = lp.slpa_detect(g, lp.SlpaParams(memory_size=5, **params)).elapsed
        slow = lp.slpa_detect(g, lp.SlpaParams(memory_size=40, **params)).elapsed
        assert slow > fast

    def test_asymmetric_graph_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lp.slpa_detect(lp.from_arcs(2, [0], [1], [1.0]))


def counted_modal(memory):
    """The modal label by counting: the most frequent, ties to the smallest id."""
    counts = Counter(memory)
    top = max(counts.values())
    return min(lab for lab, c in counts.items() if c == top)


def modal(memory, beside=0):
    """`_modal_labels` of ``memory`` as one column of a (slots x vertices)
    block, with ``beside`` columns of other labels on each side of it."""
    column = np.array(memory, dtype=np.int64)[:, None]
    other = np.ones((len(memory), beside), dtype=np.int64)
    return slpa._modal_labels(np.hstack([-60 * other, column, 60 * other]))[beside]


class TestMostPopularLabel:
    def test_majority(self):
        assert modal([5, 5, 3]) == 5

    def test_tie_takes_smallest_id(self):
        assert modal([5, 3]) == 3

    def test_single_entry(self):
        assert modal([7]) == 7

    def test_matches_counter_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # a three-way tie repeated, then padded with other ids, then shuffled
        tie = st.tuples(st.lists(st.integers(-50, 50), min_size=3, max_size=3, unique=True),
                        st.integers(1, 6), st.lists(st.integers(-50, 50), max_size=20))
        memories = st.one_of(
            st.lists(st.integers(-5, 5), min_size=1, max_size=40),
            st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=40),
            tie.map(lambda t: t[0] * t[1] + t[2]).flatmap(st.permutations),
        )

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(memory=memories)
        def check(memory):
            want = counted_modal(memory)
            assert modal(memory) == want
            assert modal(memory, beside=3) == want  # one column of many

        check()

    def test_block_read_matches_modal_label(self):
        # the read-back takes every memory at once from the slot-major block;
        # few distinct labels make tied runs common
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            shape=st.tuples(st.integers(1, 12), st.integers(1, 8)),
            labels=st.lists(st.integers(0, 3), min_size=96, max_size=96),
        )
        def check(shape, labels):
            t, n = shape
            block = np.array(labels[: t * n], dtype=np.int64).reshape(t, n)
            want = [counted_modal(block[:, v].tolist()) for v in range(n)]
            assert slpa._modal_labels(block).tolist() == want

        check()
        assert slpa._modal_labels(np.array([[5, 1], [3, 1], [5, 2], [3, 2]])).tolist() == [3, 1]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lp.SlpaParams(memory_size=1)
        with pytest.raises(ValueError):
            lp.SlpaParams(tolerance=0.0)
        with pytest.raises(ValueError):
            lp.SlpaParams(workers=0)
