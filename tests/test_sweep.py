"""A sweep row continues its cell's held run, and equals a standalone run.

Within a sweep, a row goes on from the run its cell's previous tolerance
row left (`labelprop.result.Held`); SLPA has one row per cell.  These
tests compare every row with a fresh `run_one` call of the same cell,
and the detectors' held calls with standalone calls, on grids that
continue, repeat, and climb back to a looser tolerance.
"""

import re
from functools import partial

import numpy as np
import pytest

import labelprop as lp
from labelprop import copra, rak, sweep

GRAPHS = {
    "gnp": lambda: lp.gnp(300, 0.03, seed=2),
    "ring": lambda: lp.ring_of_cliques(8, 5),
}

GRIDS = {
    "descending": (0.1, 0.01, 0.0001),
    "ascending": (0.0001, 0.1),
    "repeated": (0.1, 0.1, 0.01),
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
        tolerances=GRIDS[grid], workers=(1, 2), repetitions=2, seed=3, **SPECS[algorithm]
    )
    graphs = [(name, make()) for name, make in GRAPHS.items()]
    rows = dispatched_rows(monkeypatch, spec, graphs)
    # cells per graph, workers value and repetition; SLPA has no tolerance grid
    tolerances = len(GRIDS[grid])
    cells = {"rak": 2 * tolerances, "copra": 3 * tolerances, "slpa": 2 * 2}[algorithm]
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
], ids=["rak-tolerance", "copra-max-labels", "copra-tolerance", "slpa-memory-size",
        "rak-workers", "slpa-workers"])
def test_spec_checks_every_grid_value_with_the_params(grids, message):
    # rejected when the spec is built, not partway through its sweep
    with pytest.raises(ValueError, match=re.escape(message)):
        lp.SweepSpec(**grids)


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


def test_a_run_whose_start_failed_starts_afresh(monkeypatch):
    g = GRAPHS["gnp"]()
    params = lp.CopraParams(tolerance=0.1, seed=1)
    held = lp.Held(g)
    lp.copra_detect(g, params, held)

    def out_of_memory(*args):
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(copra, "Launch", out_of_memory)
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
