"""The benchmark's tracer finds every package name it patches.

``perfbench/spans.py`` `instrument` looks up by name, and replaces, the
functions that the CLI and the detect drivers call through their module
globals (``load_graph``, ``shuffled_indices``, ``modularity``, ...).  A
refactor that drops or renames one of them makes a traced benchmark run
(``perfbench/run.py --trace 1``) fail, and one that stops calling it
through the module global makes its layer read 0.  These tests run
traced CLI commands and check that every layer shows up, that leaving
the tracer puts every name back, and that ``on_run_one`` sees the
keyword arguments ``perfbench/run.py`` selects the strict assignment
hashes by.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import labelprop as lp
from labelprop import cli, copra, rak, slpa, sweep

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture()
def graph(tmp_path):
    path = tmp_path / "two-triangles.txt"
    path.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
    return path


def test_traced_commands_record_every_layer_and_restore_every_name(spans, graph, tmp_path):
    modules = (cli, copra, rak, slpa, sweep)
    before = [dict(vars(m)) for m in modules]
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        assert cli.main(["detect", "--input", str(graph), "--algorithm", "rak", "--strict",
                         "--output", str(tmp_path / "rak.tsv")]) == 0
        for alg in ("copra", "slpa"):
            assert cli.main(["sweep", "--input", str(graph), "--algorithm", alg,
                             "--output", str(tmp_path / f"{alg}.csv")]) == 0
    names = {s.name for s in recorder.spans}
    assert names >= {
        "graph.parse", "graph.preprocess", "prng.shuffle", "quality.modularity",
        "sweep.run_sweep", "sweep.run_one", "rak.detect", "copra.detect", "slpa.detect",
    }, names
    for module, names_before in zip(modules, before):
        for name, value in names_before.items():
            assert vars(module)[name] is value, (module.__name__, name)


def test_run_one_hook_sees_mode_and_workers_by_keyword(spans, graph, tmp_path):
    # passed positionally or renamed, they would leave the traced hash list
    # empty without an error
    seen = []
    with spans.instrument(spans.Recorder(), lambda span, result, args, kwargs: seen.append(kwargs)):
        assert cli.main(["detect", "--input", str(graph), "--algorithm", "rak", "--strict",
                         "--threads", "1", "--output", str(tmp_path / "rak.tsv")]) == 0
    assert [(kwargs.get("mode"), kwargs.get("workers")) for kwargs in seen] == [("strict", 1)]


def test_sweep_rows_follow_the_run_one_keywords(spans, graph, tmp_path):
    # perfbench/run.py pairs the dispatched calls with the CSV rows, in
    # order, and keeps the strict single-worker ones
    seen = []
    out = tmp_path / "rak.csv"
    with spans.instrument(spans.Recorder(), lambda span, result, args, kwargs: seen.append(kwargs)):
        assert cli.main(["sweep", "--input", str(graph), "--algorithm", "rak",
                         "--modes", "strict,non-strict", "--workers-grid", "1,2",
                         "--output", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    cells = [(row[header.index("mode")], row[header.index("workers")]) for row in rows]
    assert len(rows) == len(sweep.SweepSpec("rak").tolerances) * 2 * 2
    assert [(kwargs["mode"], str(kwargs["workers"])) for kwargs in seen] == cells


def unmarked_graph():
    """A symmetric graph that `preprocess` did not mark, so detectors check it."""
    return lp.from_arcs(4, [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2], [1.0] * 6)


def test_check_and_score_are_spans_inside_the_detector(spans):
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        sweep.run_one("rak", unmarked_graph())
    (detect,) = [i for i, s in enumerate(recorder.spans) if s.name == "rak.detect"]
    for name in ("graph.check_symmetric", "quality.modularity"):
        assert [s.parent for s in recorder.spans if s.name == name] == [detect], name


def test_a_traced_sweep_checks_its_graph_once(spans):
    recorder = spans.Recorder()
    spec = sweep.SweepSpec("rak", tolerances=(0.1, 0.01), modes=("strict",))
    with spans.instrument(recorder):
        assert len(list(sweep.run_sweep(spec, [("path", unmarked_graph())]))) == 2
    assert [s.name for s in recorder.spans].count("graph.check_symmetric") == 1
