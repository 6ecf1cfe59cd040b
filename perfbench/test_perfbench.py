"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import labelprop as lp  # noqa: E402
import spans  # noqa: E402

GNP = {"kind": "gnp", "n": 400, "avg_degree": 6}
PLANTED = {"kind": "planted", "blocks": 5, "size": 20, "k_in": 6, "k_out": 2}


@pytest.mark.parametrize("recipe", [GNP, PLANTED], ids=["gnp", "planted"])
def test_generators_are_deterministic_per_seed(tmp_path, recipe):
    a = inputs.make_graph_file(tmp_path / "a", recipe, seed=7, index=0)
    b = inputs.make_graph_file(tmp_path / "b", recipe, seed=7, index=0)
    c = inputs.make_graph_file(tmp_path / "c", recipe, seed=8, index=0)
    d = inputs.make_graph_file(tmp_path / "d", recipe, seed=7, index=1)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert a["sha256"] == b["sha256"] == hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest()
    assert len({a["sha256"], c["sha256"], d["sha256"]}) == 3
    n, lo, hi = a["arrays"]
    assert a["edges"] == lo.size and a["bytes"] == (tmp_path / "a").stat().st_size
    assert np.all(lo < hi) and hi.max() < n
    assert np.unique(lo * n + hi).size == lo.size  # no repeated edge


def test_planted_edges_mostly_stay_inside_blocks():
    rng = np.random.default_rng(1)
    lo, hi = inputs.planted(10, 50, 8, 2, rng)
    inside = np.mean(lo // 50 == hi // 50)
    assert 0.75 < inside < 0.85  # expected 8 / (8 + 2)


@pytest.mark.parametrize("recipe", [GNP, PLANTED], ids=["gnp", "planted"])
def test_files_parse_to_the_generated_graph(tmp_path, recipe):
    import run

    rec = inputs.make_graph_file(tmp_path / "g", recipe, seed=3, index=0)
    fmt = "edgelist" if recipe["kind"] == "gnp" else "mtx"
    parsed = lp.preprocess(lp.load_graph(str(tmp_path / "g"), fmt))
    assert lp.graph.graphs_equal(parsed, run.Inputs.graph(rec))


def test_union_length_merges_overlaps():
    assert spans.union_length([(1, 4), (3, 6), (8, 9), (2, 3)]) == 6
    assert spans.union_length([]) == 0


def test_self_time_is_span_minus_union_of_children():
    ss = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),  # overlaps a: counted once
        spans.Span("a", 8.0, 9.0, parent=0, inner=0.25, inner_layer="k"),
        spans.Span("c", 1.5, 2.0, parent=1),
    ]
    own = spans.self_times(ss)
    assert own["root"] == pytest.approx(10 - 6)
    assert own["a"] == pytest.approx((3 - 0.5) + (1 - 0.25))
    assert own["b"] == pytest.approx(3)
    assert own["c"] == pytest.approx(0.5)
    assert own["k"] == pytest.approx(0.25)


def test_recorder_nests_calls_and_generator_segments():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap(lambda x: x, "leaf")

    def gen():
        yield leaf(1)
        yield leaf(2)

    with rec.span("root"):
        for _ in rec.wrap_generator(gen, "gen")():
            rec.clock()  # consumer work between items belongs to root
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("root", -1), ("gen", 0), ("leaf", 1), ("gen", 0), ("leaf", 3), ("gen", 0)]
    # Every clock read is one tick; the root is open from tick 0 to 13 and
    # the generator segments cover [1, 4], [6, 9] and [11, 12].
    own = spans.self_times(rec.spans)
    assert own == {"root": 6.0, "gen": 5.0, "leaf": 2.0}


def _detect_output(graph, labels, q_shift=0.0):
    tsv = "".join(f"{v}\t{c}\n" for v, c in enumerate(labels)).encode()
    q = lp.modularity(graph, labels) + q_shift
    err = f"vertices={graph.vertex_count} iterations=2 elapsed_ms=1.000 modularity={q:.12f}\n"
    return tsv, err


@pytest.fixture
def cliques():
    return lp.disjoint_cliques(3, 4)


def _check(graph, tsv, err):
    return check.check_detect(tsv, err, graph.vertex_count, lambda a: lp.modularity(graph, a))


def test_detect_check_passes_a_good_output(cliques):
    labels = np.repeat(np.arange(3) * 4, 4)
    problems, facts = _check(cliques, *_detect_output(cliques, labels))
    assert problems == []
    assert facts["iterations"] == 2 and facts["modularity"] == pytest.approx(2 / 3)


def test_detect_check_flags_a_truncated_tsv(cliques):
    tsv, err = _detect_output(cliques, np.zeros(12, dtype=np.int64))
    problems, _ = _check(cliques, tsv[: tsv.rindex(b"\n", 0, -1) + 1], err)
    assert any("rows for 12 vertices" in p for p in problems)
    problems, _ = _check(cliques, tsv[:-3], err)  # cut mid-row
    assert problems


def test_detect_check_flags_a_wrong_q(cliques):
    problems, _ = _check(cliques, *_detect_output(cliques, np.zeros(12, dtype=np.int64), 1e-6))
    assert any("recomputed Q" in p for p in problems)


def test_detect_check_flags_out_of_range_labels(cliques):
    labels = np.arange(12)
    tsv, err = _detect_output(cliques, labels)
    problems, _ = _check(cliques, tsv.replace(b"11\t11\n", b"11\t12\n"), err)
    assert any("outside [0, n)" in p for p in problems)


SWEEP = (
    "graph,algorithm,mode,tolerance,max_labels,memory_size,workers,seed,iterations,elapsed_ms,modularity\n"
    "g.mtx,rak,strict,0.1,,,1,1,3,1.000,0.500000000\n"
    "g.mtx,rak,strict,0.1,,,2,1,3,1.000,0.500000000\n"
)
WANT = [{"graph": "g.mtx", "algorithm": "rak", "mode": "strict", "tolerance": 0.1, "workers": w}
        for w in (1, 2)]


def test_sweep_check_reads_rows_and_tolerates_added_columns():
    problems, rows = check.check_sweep(SWEEP.encode(), WANT)
    assert problems == [] and [r["workers"] for r in rows] == [1, 2]
    wider = SWEEP.replace("modularity\n", "modularity,backend\n").replace("000\n", "000,python\n")
    assert check.check_sweep(wider.encode(), WANT)[0] == []


def test_sweep_check_flags_truncation_and_grid_mismatch():
    problems, rows = check.check_sweep(SWEEP.encode()[:-4], WANT)
    assert problems and rows[1] is None  # last row cut inside its Q
    problems, rows = check.check_sweep(SWEEP.encode()[:-60], WANT)
    assert problems and rows == [None, None]  # one row cut, one missing
    problems, rows = check.check_sweep(SWEEP.replace("strict,0.1", "non-strict,0.1").encode(), WANT)
    assert problems and rows == [None, None]


def test_repeat_mismatch_only_checks_single_worker_rows():
    _, first = check.check_sweep(SWEEP.encode(), WANT)
    _, later = check.check_sweep(SWEEP.replace(",3,1.000", ",4,1.000").encode(), WANT)
    assert check.repeat_mismatches(first, later) == [0]


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(run.GATED) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    ss = [spans.Span("cli.main", 0.0, 1.0), spans.Span("rak.detect", 0.1, 0.5, parent=0)]
    names = set(spans.layer_metrics(ss)) - {"trace.self_sum_s"}
    names |= {"cli.output_bytes", "trace.overhead_s", "backend.first_call_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])


@pytest.mark.parametrize("name", ["detect-gnp-rak", "sweep-planted-rak", "sweep-planted-slpa"])
def test_traced_cli_run_accounts_for_its_wall(tmp_path, monkeypatch, name):
    import run

    wl = run.WORKLOADS[name]
    ext = ".txt" if wl.tiny["kind"] == "gnp" else ".mtx"
    rec = inputs.make_graph_file(tmp_path / f"tiny{ext}", wl.tiny, seed=5, index=0)
    monkeypatch.chdir(tmp_path)
    recorder = spans.Recorder()
    code, _, err = run.call_main(wl.argv([rec["file"]]), tmp_path / "out.txt", recorder)
    assert code == 0, err
    m = spans.layer_metrics(recorder.spans)
    rows = 1 if wl.grid is None else len(wl.expected_rows([rec["file"]]))
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)
    assert m["sweep.rows"] == m["quality.modularity_calls"] == m["graph.check_symmetric_calls"] == rows
    assert m[f"{wl.algorithm}.iterations"] >= rows
    assert m[f"{wl.algorithm}.kernel_s"] > 0 and m["graph.parse_s"] > 0


def test_cli_process_is_timed_and_checked(tmp_path):
    import run

    wl = run.WORKLOADS["sweep-planted-copra"]
    rec = inputs.make_graph_file(tmp_path / "tiny.mtx", wl.tiny, seed=5, index=0)
    r = run.run_cli(wl.argv([rec["file"]]), tmp_path, header_lines=1)
    assert r["code"] == 0, r["stderr"]
    assert 0 < r["first_row_s"] <= r["wall_s"] and r["peak_rss_mb"] > 0
    problems, rows = check.check_sweep(r["stdout"], wl.expected_rows([rec["file"]]))
    assert problems == [] and None not in rows


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    import shutil
    import subprocess

    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "detect-gnp-rak",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
