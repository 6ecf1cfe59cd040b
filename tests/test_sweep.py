"""A sweep row continues a held run where it can, and equals a standalone run.

Within a sweep, a row goes on from the run an earlier row left when that
run makes the row's first iterations (`labelprop.result.continues`): a
looser tolerance, a smaller SLPA memory, or a ``workers`` value that
runs on the same threads.  These tests compare every row with a fresh
`run_one` call of the same cell, and the detectors' held calls with
standalone calls, on grids that continue, repeat, and climb back to a
looser tolerance or a smaller memory; they count the runs a sweep starts
and the runs it holds at once.
"""

import gc
import re
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import labelprop as lp
from labelprop import _backend, copra, rak, slpa, sweep
from helpers import slpa_run

GRAPHS = {
    "gnp": lambda: lp.gnp(300, 0.03, seed=2),
    "ring": lambda: lp.ring_of_cliques(8, 5),
}

# a tolerance grid and an SLPA memory grid in each order; a tighter
# tolerance continues a run, and so does a larger memory
GRIDS = {
    "descending": dict(tolerances=(0.1, 0.01, 0.0001), memory_sizes=(5, 2)),
    "ascending": dict(tolerances=(0.0001, 0.1), memory_sizes=(2, 5)),
    "repeated": dict(tolerances=(0.1, 0.1, 0.01), memory_sizes=(2, 2, 5)),
}

SPECS = {
    "rak": dict(algorithm="rak"),
    "copra": dict(algorithm="copra", max_labels=(1, 3, 8)),
    "slpa": dict(algorithm="slpa", memory_sizes=(2, 5)),
}


def dispatched_rows(monkeypatch, spec, graphs):
    """(record, run_one keywords, result) of every row the sweep yields."""
    calls = []
    run_one = sweep.run_one

    def recording(*args, **kwargs):
        result = run_one(*args, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(sweep, "run_one", recording)
    records = list(lp.run_sweep(spec, graphs))
    assert len(records) == len(calls)
    return [(rec, kw, r) for rec, (kw, r) in zip(records, calls)]


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("algorithm", list(SPECS))
def test_rows_equal_standalone_runs(monkeypatch, algorithm, grid):
    spec = lp.SweepSpec(
        workers=(1, 2), repetitions=2, seed=3, **{**SPECS[algorithm], **GRIDS[grid]}
    )
    graphs = [(name, make()) for name, make in GRAPHS.items()]
    rows = dispatched_rows(monkeypatch, spec, graphs)
    # cells per graph, workers value and repetition; SLPA's outer grid is its memory
    tolerances, memories = (len(GRIDS[grid][axis]) for axis in ("tolerances", "memory_sizes"))
    cells = {"rak": 2 * tolerances, "copra": 3 * tolerances, "slpa": 2 * memories}[algorithm]
    assert len(rows) == len(graphs) * 2 * 2 * cells
    by_name = dict(graphs)
    # compared after the whole sweep: later rows, which go on with the held
    # state, must not have moved an earlier row's assignment
    for rec, kw, result in rows:
        options = {k: v for k, v in kw.items() if k != "held"}
        alone = sweep.run_one(algorithm, by_name[rec.graph], **options)
        cell = (rec.graph, options)
        assert rec.iterations == result.iterations == alone.iterations, cell
        assert rec.modularity == result.modularity == alone.modularity, cell
        assert np.array_equal(result.assignment, alone.assignment), cell
        # the row reports the run's time so far, at least this call's own
        assert rec.elapsed_ms >= result.elapsed * 1000.0


# one row per algorithm on a ring of 5 cliques of 4, with its elapsed_ms cell cut out
PINNED_ROWS = {
    "rak": (dict(tolerances=(0.01,), modes=("strict",)),
            "ring,rak,strict,0.01,,,1,1,3", "0.709090909"),
    "copra": (dict(tolerances=(0.01,), max_labels=(4,)),
              "ring,copra,,0.01,4,,1,1,3", "0.709090909"),
    "slpa": (dict(memory_sizes=(8,), modes=("strict",)),
             f"ring,slpa,strict,{lp.SlpaParams.tolerance},,8,1,1,7", "0.462479339"),
}


@pytest.mark.parametrize("grids, message", [
    (dict(algorithm="rak", tolerances=(0.1, 0.0), modes=("strict",)), "tolerance must be in (0, 1]"),
    (dict(algorithm="copra", max_labels=(4, 0), tolerances=(0.1,)), "max_labels must be >= 1"),
    (dict(algorithm="copra", tolerances=(0.1, 1.5)), "tolerance must be in (0, 1]"),
    (dict(algorithm="slpa", memory_sizes=(8, 1)), "memory_size must be >= 2"),
    (dict(algorithm="rak", workers=(0,)), "workers must be >= 1"),
    (dict(algorithm="slpa", workers=(1, 0)), "workers must be >= 1"),
    (dict(algorithm="rak", tolerances=()), "tolerances grid must be non-empty"),
    (dict(algorithm="copra", repetitions=0), "repetitions must be >= 1"),
    (dict(algorithm="bogus"), "unknown algorithm 'bogus'"),
], ids=["rak-tolerance", "copra-max-labels", "copra-tolerance", "slpa-memory-size",
        "rak-workers", "slpa-workers", "empty-grid", "no-repetitions", "unknown-algorithm"])
def test_spec_checks_every_grid_value_with_the_params(grids, message):
    # rejected when the spec is built, not partway through its sweep
    with pytest.raises(ValueError, match=re.escape(message)):
        lp.SweepSpec(**grids)


@pytest.mark.parametrize("params", [
    partial(lp.RakParams, strict="no"),
    partial(lp.SlpaParams, strict=1),
    partial(lp.RakParams, seed=2.7),
    partial(lp.CopraParams, seed=True),
    partial(lp.RakParams, max_iterations=10.0),
    partial(lp.CopraParams, max_labels=4.5),
    partial(lp.SlpaParams, memory_size=8.0),
    partial(lp.SlpaParams, workers=1.5),
    partial(lp.SweepSpec, "rak", repetitions=1.5),
    partial(lp.SweepSpec, "rak", seed=1.5),
    partial(lp.SweepSpec, "rak", workers=(1.5,)),
    partial(lp.SweepSpec, "copra", max_labels=(4, True)),
], ids=["rak-strict", "slpa-strict", "seed-float", "seed-bool", "max-iterations", "max-labels",
        "memory-size", "workers", "spec-repetitions", "spec-seed", "spec-workers",
        "spec-max-labels"])
def test_values_of_the_wrong_type_fail_when_built(params):
    with pytest.raises(TypeError, match="must be (an integer|True or False)"):
        params()


def test_numpy_integers_are_integers():
    params = lp.CopraParams(max_labels=np.int32(4), max_iterations=np.int64(5), seed=np.uint8(3))
    assert params.max_labels == 4
    assert lp.SweepSpec("rak", repetitions=np.int64(2), seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("algorithm", ["rak", "slpa"])
def test_run_one_rejects_an_unknown_mode(algorithm):
    with pytest.raises(ValueError, match="unknown mode 'bogus'; expected one of strict, non-strict"):
        lp.run_one(algorithm, GRAPHS["ring"](), mode="bogus")


def test_run_one_rejects_a_mode_for_copra():
    # COPRA has no tie mode: a mode is an option it lacks
    with pytest.raises(TypeError):
        lp.run_one("copra", GRAPHS["ring"](), mode="strict")


@pytest.mark.parametrize("algorithm", list(PINNED_ROWS))
def test_csv_row_cells_and_formats(algorithm):
    # the cells a run's algorithm lacks are empty (RAK: max_labels and
    # memory_size; COPRA: mode and memory_size; SLPA: max_labels), SLPA's
    # tolerance is its default, elapsed_ms has 3 decimals, modularity 9
    grids, head, modularity = PINNED_ROWS[algorithm]
    spec = lp.SweepSpec(algorithm=algorithm, **grids)
    [record] = lp.run_sweep(spec, [("ring", lp.ring_of_cliques(5, 4))])
    *cells, elapsed, q = record.csv_row().split(",")
    assert ",".join(cells) == head
    assert re.fullmatch(r"\d+\.\d{3}", elapsed), elapsed
    assert q == modularity


def test_sweep_shuffles_and_plans_once_per_seed(monkeypatch):
    counts = {"shuffle": 0, "plan": 0}
    shuffle, plan = rak.shuffled_indices, rak._level_plan

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(rak, "shuffled_indices", counting("shuffle", shuffle))
    monkeypatch.setattr(rak, "_level_plan", counting("plan", plan))
    spec = lp.SweepSpec(algorithm="rak", tolerances=(0.1, 0.001), workers=(1, 2), repetitions=2)
    records = list(lp.run_sweep(spec, [(name, make()) for name, make in GRAPHS.items()]))
    assert len(records) == 2 * 2 * 2 * 2 * 2
    # two graphs, two seeds each; only strict runs build plans, and only interpreted
    assert counts == {"shuffle": 4, "plan": 0 if lp.JIT_ENABLED else 4}


@pytest.mark.parametrize("max_threads", [1, 2])
@pytest.mark.parametrize("algorithm", ["rak", "slpa"])
def test_rows_whose_workers_run_on_the_same_threads_share_a_run(monkeypatch, algorithm,
                                                                max_threads):
    # on one thread (the interpreter's pool) a workers 2 row makes exactly the
    # iterations of its workers 1 twin, so it goes on with the twin's run; on
    # two threads each workers value starts its own run.  SLPA's larger
    # memory continues the smaller one's run either way.
    monkeypatch.setattr(_backend, "MAX_THREADS", max_threads)
    starts = Counter()
    go = lp.Held.go

    def counting(self, params, start, *rest):
        def counted():
            starts[id(self.graph), params.strict, params.seed] += 1
            return start()

        return go(self, params, counted, *rest)

    monkeypatch.setattr(lp.Held, "go", counting)
    spec = lp.SweepSpec(algorithm, tolerances=(0.1, 0.001), memory_sizes=(4, 16),
                        workers=(1, 2), repetitions=2)
    graphs = [(name, make()) for name, make in GRAPHS.items()]
    records = list(lp.run_sweep(spec, graphs))
    assert len(records) == 2 * 2 * 2 * 2 * 2
    # one key per graph, mode and seed, and the workers column still shows the row's value
    assert len(starts) == 2 * 2 * 2
    assert set(starts.values()) == {max_threads}
    assert [r.workers for r in records[:4]] == [1, 1, 2, 2]


@pytest.mark.parametrize("algorithm", list(SPECS))
def test_one_outer_value_holds_one_live_run(monkeypatch, algorithm):
    # with one tolerance (one SLPA memory) every key's rows come together,
    # so each key's handle is freed after its last row, not when the graph ends
    live = weakref.WeakSet()

    class Counted(lp.Held):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    peaks = []
    run_one = sweep.run_one

    def recording(*args, **kwargs):
        gc.collect()
        peaks.append(len(live))
        return run_one(*args, **kwargs)

    monkeypatch.setattr(sweep, "Held", Counted)
    monkeypatch.setattr(sweep, "run_one", recording)
    spec = lp.SweepSpec(tolerances=(0.01,), repetitions=3,
                        **{**SPECS[algorithm], "memory_sizes": (4,)})
    records = list(lp.run_sweep(spec, [("ring", GRAPHS["ring"]())]))
    # a key per mode (COPRA: per max_labels) and seed, one row each
    assert len(records) == {"rak": 6, "copra": 9, "slpa": 6}[algorithm]
    assert max(peaks) == 1


@pytest.mark.parametrize("algorithm", list(SPECS))
def test_a_sweep_checks_an_unmarked_graph_once(monkeypatch, algorithm):
    # the handles of one graph share its check (their memo), so a graph
    # that preprocess did not mark is checked once, not once per row
    module = {"rak": rak, "copra": copra, "slpa": slpa}[algorithm]
    checked = []
    check = module.check_symmetric
    monkeypatch.setattr(module, "check_symmetric", lambda g: checked.append(g) or check(g))
    graph = replace(GRAPHS["ring"](), symmetric=False)
    spec = lp.SweepSpec(tolerances=(0.1, 0.01), **SPECS[algorithm])
    records = list(lp.run_sweep(spec, [("ring", graph)]))
    assert len(records) == {"rak": 4, "copra": 6, "slpa": 4}[algorithm]
    assert len(checked) == 1 and checked[0] is graph


# (detect, parameters, the option that caps a run at one iteration)
DETECTORS = {
    "rak-strict": (lp.rak_detect, partial(lp.RakParams, strict=True), {"max_iterations": 1}),
    "rak-non-strict": (lp.rak_detect, partial(lp.RakParams, strict=False), {"max_iterations": 1}),
    "copra-ml1": (lp.copra_detect, partial(lp.CopraParams, max_labels=1), {"max_iterations": 1}),
    "copra-ml8": (lp.copra_detect, partial(lp.CopraParams, max_labels=8), {"max_iterations": 1}),
    "slpa-strict": (lp.slpa_detect, partial(lp.SlpaParams, strict=True), {"memory_size": 2}),
    "slpa-non-strict": (lp.slpa_detect, partial(lp.SlpaParams, strict=False), {"memory_size": 2}),
}


def changed(held):
    """The vertices the held run's last iteration moved, as the tolerance
    bounds them: RAK and COPRA count changes, SLPA counts repeats."""
    if isinstance(held.params, lp.SlpaParams):
        return held.graph.vertex_count - held.count
    return held.count


def same(a, b):
    return (a.iterations, a.modularity, a.assignment.tolist()) == (
        b.iterations, b.modularity, b.assignment.tolist()
    )


@pytest.mark.parametrize("name", list(DETECTORS))
def test_loose_rung_at_max_iterations_runs_nothing_more(name):
    detect, make, one = DETECTORS[name]
    g = GRAPHS["gnp"]()
    loose_params = make(tolerance=0.1, seed=5, **one)
    tight_params = make(tolerance=0.0001, seed=5, **one)
    held = lp.Held(g)
    loose = detect(g, loose_params, held)
    assert loose.iterations == 1 and changed(held) > 0.1 * g.vertex_count  # the cap stopped it
    run = held.run
    tight = detect(g, tight_params, held)
    assert held.run is run and held.iterations == 1
    assert same(tight, detect(g, tight_params))


@pytest.mark.parametrize("graph", ["gnp", "cliques"])
@pytest.mark.parametrize("name", list(DETECTORS))
def test_loose_and_tight_stop_at_the_same_iteration(name, graph):
    detect, make, _ = DETECTORS[name]
    g = GRAPHS["gnp"]() if graph == "gnp" else lp.disjoint_cliques(6, 5)
    # strict SLPA on the G(n, p) graph settles at 0.3 only at its memory's end
    loose_tolerance = 0.5 if name.startswith("slpa") else 0.3
    held = lp.Held(g)
    loose = detect(g, make(tolerance=loose_tolerance, seed=2), held)
    # a smaller tolerance that the loose run's last count still meets
    tolerance = (changed(held) + 0.5) / g.vertex_count
    assert tolerance < loose_tolerance
    run = held.run
    tight = detect(g, make(tolerance=tolerance, seed=2), held)
    assert held.run is run
    alone = detect(g, make(tolerance=tolerance, seed=2))
    assert tight.iterations == loose.iterations == alone.iterations
    assert same(tight, alone)


@pytest.mark.parametrize("name", list(DETECTORS))
def test_held_calls_equal_standalone_calls(name):
    detect, make, _ = DETECTORS[name]
    g = GRAPHS["gnp"]()
    held = lp.Held(g)
    since_fresh = []  # the elapsed of each call since the run last started afresh
    # continue down, repeat, climb back (a fresh run), then change the seed
    for tolerance, seed in ((0.2, 4), (0.01, 4), (0.01, 4), (0.0001, 4), (0.05, 4), (0.0001, 6)):
        params = make(tolerance=tolerance, seed=seed)
        result = detect(g, params, held)
        assert same(result, detect(g, params)), (tolerance, seed)
        if (tolerance, seed) in ((0.05, 4), (0.0001, 6)):
            since_fresh = []
        since_fresh.append(result.elapsed)
        # the sweep's elapsed_ms column: summed in call order from a fresh run's 0
        assert held.elapsed == sum(since_fresh, 0.0), (tolerance, seed)


@pytest.mark.parametrize("name", list(DETECTORS))
def test_a_larger_cap_continues_the_run_and_a_smaller_one_starts_afresh(name):
    # a larger max_iterations (SLPA: memory_size) only adds iterations
    detect, make, one = DETECTORS[name]
    g = GRAPHS["gnp"]()
    held = lp.Held(g)
    short = detect(g, make(tolerance=0.0001, seed=4, **one), held)
    run = held.run
    assert short.iterations == 1
    longer = make(tolerance=0.0001, seed=4)
    assert same(detect(g, longer, held), detect(g, longer))
    assert held.run is run
    assert same(detect(g, make(tolerance=0.0001, seed=4, **one), held), short)
    assert held.run is not run


@pytest.mark.parametrize("tolerance, iterations", [(0.05, 3), (0.5, 2)], ids=["cap", "settled"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_a_larger_memory_continues_the_held_run(strict, tolerance, iterations):
    # the memory 4 run either reaches its cap of 3 iterations or settles at 2;
    # memory 16 goes on from there, its slots padded with zeros, as a
    # standalone memory 16 run would
    g = lp.ring_of_cliques(8, 5)
    params = lp.SlpaParams(memory_size=4, tolerance=tolerance, strict=strict, seed=3)
    held = lp.Held(g)
    assert lp.slpa_detect(g, params, held).iterations == iterations
    run = held.run
    grown = replace(params, memory_size=16)
    labels, it, (slots, filled) = slpa_run(g, grown, held)
    assert held.run is run
    alone_labels, alone_it, (alone_slots, alone_filled) = slpa_run(g, grown)
    assert it == alone_it and (it == iterations) == (tolerance == 0.5)
    assert np.array_equal(slots, alone_slots) and np.array_equal(filled, alone_filled)
    assert np.array_equal(labels, alone_labels)
    assert same(lp.slpa_detect(g, grown, held), lp.slpa_detect(g, grown))


def test_a_handle_moves_between_detectors():
    # each call's parameters are of another class than the held run's, so
    # each starts afresh, and the handle's memo serves all three; the RAK
    # and SLPA calls agree on every field but their class's GROWS
    g = GRAPHS["gnp"]()
    held = lp.Held(g)
    for detect, params in ((lp.rak_detect, lp.RakParams(seed=2)),
                           (lp.slpa_detect, lp.SlpaParams(memory_size=6, seed=2)),
                           (lp.copra_detect, lp.CopraParams(max_labels=3, seed=2)),
                           (lp.rak_detect, lp.RakParams(strict=True, seed=2))):
        assert same(detect(g, params, held), detect(g, params)), params
        assert held.params == params


def test_a_run_whose_start_failed_starts_afresh(monkeypatch):
    g = GRAPHS["gnp"]()
    params = lp.CopraParams(tolerance=0.1, seed=1)
    held = lp.Held(g)
    lp.copra_detect(g, params, held)

    def out_of_memory(*args):
        raise MemoryError

    # fail what each COPRA path builds first: the label rows interpreted,
    # the kernel's state compiled
    with monkeypatch.context() as m:
        m.setattr(copra, "state_zeros" if lp.JIT_ENABLED else "_Rows", out_of_memory)
        with pytest.raises(MemoryError):
            lp.copra_detect(g, lp.CopraParams(tolerance=0.1, seed=2), held)
    # the failed start left no run to continue, so the retry starts afresh
    assert same(lp.copra_detect(g, params, held), lp.copra_detect(g, params))


def test_held_run_of_another_graph_is_rejected():
    held = lp.Held(GRAPHS["ring"]())
    with pytest.raises(ValueError, match="another graph"):
        lp.rak_detect(GRAPHS["ring"](), lp.RakParams(), held)
    with pytest.raises(ValueError, match="another graph"):
        lp.run_one("slpa", GRAPHS["ring"](), held=held)
