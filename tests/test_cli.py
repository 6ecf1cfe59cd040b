import re
import subprocess
import sys

import pytest

from labelprop import JIT_ENABLED
from labelprop.cli import main
from labelprop.copra import CopraParams, copra_detect
from labelprop.graph import load_graph, preprocess
from labelprop.slpa import SlpaParams
from labelprop.sweep import CSV_HEADER, SweepSpec, run_one, run_sweep
from labelprop.synth import ring_of_cliques

TRI2_MTX = """%%MatrixMarket matrix coordinate pattern symmetric
6 6 6
2 1
3 1
3 2
5 4
6 4
6 5
"""


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "labelprop", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture()
def tri2(tmp_path):
    path = tmp_path / "tri2.mtx"
    path.write_text(TRI2_MTX)
    return path


def parse_tsv(text):
    rows = [line.split("\t") for line in text.strip().splitlines()]
    return {int(v): int(c) for v, c in rows}


class TestDetect:
    def test_emits_partition_and_summary(self, tri2):
        proc = run_cli(
            "detect", "--algorithm", "rak", "--input", str(tri2),
            "--tolerance", "0.05", "--strict", "--seed", "1",
        )
        assert proc.returncode == 0
        assignment = parse_tsv(proc.stdout)
        assert sorted(assignment) == list(range(6))
        assert len(set(assignment.values())) == 2
        assert assignment[0] == assignment[1] == assignment[2]
        assert assignment[3] == assignment[4] == assignment[5]
        assert re.search(r"iterations=\d+ elapsed_ms=[\d.]+ modularity=", proc.stderr)

    def test_writes_output_file(self, tri2, tmp_path):
        out = tmp_path / "communities.tsv"
        proc = run_cli(
            "detect", "--algorithm", "slpa", "--input", str(tri2),
            "--memory-size", "8", "--seed", "2", "--output", str(out),
        )
        assert proc.returncode == 0
        assert len(parse_tsv(out.read_text())) == 6

    def test_missing_input_flag_exits_2(self):
        proc = run_cli("detect", "--algorithm", "rak")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_algorithm_exits_2(self, tri2):
        proc = run_cli("detect", "--algorithm", "bogus", "--input", str(tri2))
        assert proc.returncode == 2

    @pytest.mark.parametrize("option, value", [
        ("--threads", "0"),
        ("--tolerance", "0"),
        ("--tolerance", "1.5"),
        ("--max-labels", "0"),
        ("--memory-size", "1"),
        ("--max-iterations", "0"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, tri2, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--algorithm", "rak", "--input", str(tri2), option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("algorithm, option, value", [
        ("slpa", "--max-iterations", "1"),
        ("rak", "--max-labels", "3"),
        ("rak", "--memory-size", "4"),
        ("copra", "--memory-size", "4"),
        ("copra", "--strict", None),
        ("copra", "--non-strict", None),
    ])
    def test_option_of_another_algorithm_is_a_usage_error(
        self, tri2, capsys, algorithm, option, value
    ):
        argv = ["detect", "--algorithm", algorithm, "--input", str(tri2), option]
        assert main(argv + ([value] if value else [])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"labelprop detect: error: {option} does not apply to --algorithm {algorithm}"
        ]

    @pytest.mark.parametrize("algorithm", ["rak", "copra"])
    def test_max_iterations_reaches_the_run(self, tri2, capsys, algorithm):
        argv = ["detect", "--algorithm", algorithm, "--input", str(tri2), "--tolerance", "0.0001"]
        assert main(argv + ["--max-iterations", "1"]) == 0
        assert "iterations=1 " in capsys.readouterr().err

    def test_unreadable_file_exits_nonzero(self):
        proc = run_cli("detect", "--algorithm", "rak", "--input", "no_such_file.mtx")
        assert proc.returncode == 1
        assert "no_such_file" in proc.stderr


class TestScore:
    def test_all_one_community_scores_zero(self, tri2, tmp_path):
        tsv = tmp_path / "one.tsv"
        tsv.write_text("".join(f"{v}\t0\n" for v in range(6)))
        proc = run_cli("score", "--input", str(tri2), "--assignment", str(tsv))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.000000"

    def test_triangle_partition_without_self_loops(self, tri2, tmp_path):
        tsv = tmp_path / "tri.tsv"
        tsv.write_text("".join(f"{v}\t{v // 3}\n" for v in range(6)))
        proc = run_cli(
            "score", "--input", str(tri2), "--assignment", str(tsv), "--no-self-loops"
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.500000"

    def test_missing_vertex_named(self, tri2, tmp_path):
        tsv = tmp_path / "partial.tsv"
        tsv.write_text("0\t0\n1\t0\n2\t0\n")
        proc = run_cli("score", "--input", str(tri2), "--assignment", str(tsv))
        assert proc.returncode == 1
        assert "vertex 3" in proc.stderr

    def test_duplicate_vertex_named(self, tri2, tmp_path):
        tsv = tmp_path / "dup.tsv"
        tsv.write_text("0\t0\n0\t1\n")
        proc = run_cli("score", "--input", str(tri2), "--assignment", str(tsv))
        assert proc.returncode == 1
        assert "vertex 0" in proc.stderr

    def test_non_utf8_assignment_names_the_line(self, tri2, tmp_path, capsys):
        tsv = tmp_path / "bom.tsv"
        tsv.write_bytes(b"\xff\xfe0\t0\n")
        assert main(["score", "--input", str(tri2), "--assignment", str(tsv)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["labelprop: line 1: not valid UTF-8 (byte 0xff)"]

    @pytest.mark.parametrize("text, message", [
        ("0\t0\n1\tx\n", "line 2: non-integer token in assignment file"),
        ("0\t0\ny\t0\n", "line 2: non-integer token in assignment file"),
        ("0\t0\n\n1\t99999999999999999999\n", "line 3: community id 99999999999999999999 outside int64"),
        ("0\t0\n9\t0\n", "line 2: vertex 9 out of range [0, 6)"),
        ("0\t0\n1\t0\n0\t1\n", "line 3: duplicate assignment for vertex 0"),
        ("0\t0\n1\t0\t7\n", "line 2: expected 'vertex<TAB>community'"),
    ], ids=["community", "vertex", "beyond-int64", "out-of-range", "duplicate", "three-fields"])
    def test_bad_integer_names_the_line(self, tri2, tmp_path, capsys, text, message):
        tsv = tmp_path / "bad.tsv"
        tsv.write_text(text)
        assert main(["score", "--input", str(tri2), "--assignment", str(tsv)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"labelprop: {message}"]

    def test_community_id_minus_one_is_an_ordinary_label(self, tmp_path, capsys):
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n")
        scores = []
        for name, text in (("neg", "0\t-1\n1\t-1\n2\t3\n"), ("pos", "0\t0\n1\t0\n2\t1\n")):
            tsv = tmp_path / f"{name}.tsv"
            tsv.write_text(text)
            assert main(["score", "--input", str(graph), "--assignment", str(tsv)]) == 0
            scores.append(capsys.readouterr().out)
        assert scores[0] == scores[1]

    def test_round_trip_reproduces_reported_modularity(self, tri2, tmp_path):
        out = tmp_path / "rt.tsv"
        detect = run_cli(
            "detect", "--algorithm", "rak", "--input", str(tri2),
            "--strict", "--seed", "1", "--output", str(out),
        )
        reported = float(re.search(r"modularity=([-\d.]+)", detect.stderr).group(1))
        score = run_cli("score", "--input", str(tri2), "--assignment", str(out))
        rescored = float(re.search(r"modularity=([-\d.]+)", score.stderr).group(1))
        assert abs(reported - rescored) <= 1e-9


class TestSweep:
    def test_row_count_matches_grid_product(self, tri2):
        proc = run_cli(
            "sweep", "--algorithm", "rak", "--input", str(tri2),
            "--workers-grid", "1", "--repetitions", "1",
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("graph,algorithm,mode,")
        assert len(lines) - 1 == 5 * 2  # tolerances x modes

    def test_empty_graph_list_emits_header_only(self):
        proc = run_cli("sweep", "--algorithm", "rak")
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines() == [
            "graph,algorithm,mode,tolerance,max_labels,memory_size,workers,seed,iterations,elapsed_ms,modularity"
        ]

    def test_repetitions_use_consecutive_seeds(self, tri2):
        proc = run_cli(
            "sweep", "--algorithm", "rak", "--input", str(tri2),
            "--tolerances", "0.05", "--modes", "non-strict",
            "--repetitions", "3", "--seed", "7",
        )
        seeds = [int(line.split(",")[7]) for line in proc.stdout.strip().splitlines()[1:]]
        assert seeds == [7, 8, 9]

    def test_unloadable_graph_warns_and_continues(self, tri2, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n9 9\n")
        proc = run_cli(
            "sweep", "--algorithm", "rak", "--input", str(bad), str(tri2),
            "--tolerances", "0.05", "--modes", "strict",
        )
        assert proc.returncode == 0
        assert "skipping" in proc.stderr
        rows = proc.stdout.strip().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith(str(tri2))

    def test_every_graph_skipped_emits_header_only(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n9 9\n")
        proc = run_cli("sweep", "--algorithm", "rak", "--input", str(bad), str(bad))
        assert proc.returncode == 0
        assert proc.stderr.count("skipping") == 2
        assert proc.stdout.splitlines() == [CSV_HEADER]

    @pytest.mark.parametrize("option, value", [
        ("--workers-grid", "0"),
        ("--repetitions", "0"),
        ("--tolerances", "0"),
        ("--tolerances", "0.1,1.5"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, tri2, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--algorithm", "rak", "--input", str(tri2), option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'strct'"):
            SweepSpec(algorithm="rak", modes=("strct",))

    def test_empty_grid_is_a_usage_error(self, tri2, capsys):
        argv = ["sweep", "--algorithm", "rak", "--input", str(tri2), "--tolerances", ","]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["labelprop sweep: error: tolerances grid must be non-empty"]

    def test_unknown_mode_rejected(self, tri2):
        proc = run_cli(
            "sweep", "--algorithm", "rak", "--input", str(tri2), "--modes", "strict,strct",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "labelprop sweep: error: unknown mode 'strct'; expected one of strict, non-strict"
        ]

    @pytest.mark.parametrize("algorithm, option, value", [
        ("rak", "--memory-sizes", "5"),
        ("copra", "--modes", "bogus"),
        ("slpa", "--tolerances", "0.1"),
    ])
    def test_grid_flag_the_algorithm_never_crosses_is_a_usage_error(
        self, tmp_path, capsys, algorithm, option, value
    ):
        # rejected before any graph is read: the input does not exist
        missing = tmp_path / "missing.mtx"
        assert main(["sweep", "--algorithm", algorithm, option, value,
                     "--input", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"labelprop sweep: error: {option} does not apply to --algorithm {algorithm}"
        ]

    def test_copra_grid_uses_max_labels(self, tri2):
        proc = run_cli(
            "sweep", "--algorithm", "copra", "--input", str(tri2),
            "--tolerances", "0.01", "--max-labels-grid", "1,8",
        )
        rows = proc.stdout.strip().splitlines()[1:]
        assert len(rows) == 2
        assert [r.split(",")[4] for r in rows] == ["1", "8"]

    def test_slpa_grid_uses_memory_sizes_and_modes(self, tri2):
        proc = run_cli(
            "sweep", "--algorithm", "slpa", "--input", str(tri2),
            "--memory-sizes", "4,8",
        )
        rows = proc.stdout.strip().splitlines()[1:]
        assert len(rows) == 4
        assert {r.split(",")[5] for r in rows} == {"4", "8"}
        assert {r.split(",")[3] for r in rows} == {str(SlpaParams.tolerance)}

    @pytest.mark.parametrize("algorithm", ["rak", "copra", "slpa"])
    def test_run_one_treats_none_as_the_default(self, algorithm):
        graph = ring_of_cliques(4, 5)
        unset = run_one(algorithm, graph, seed=3)
        nones = run_one(algorithm, graph, seed=3, tolerance=None, max_labels=None,
                        memory_size=None, max_iterations=None)
        assert unset.iterations == nones.iterations
        assert unset.assignment.tolist() == nones.assignment.tolist()

    @pytest.mark.parametrize("algorithm, option", [
        ("rak", "max_labels"), ("copra", "memory_size"), ("slpa", "max_iterations"),
    ])
    def test_run_one_rejects_an_option_of_another_algorithm(self, algorithm, option):
        with pytest.raises(TypeError):
            run_one(algorithm, ring_of_cliques(4, 5), **{option: 3})


PETA = "100000000000000"  # a state of this many labels per vertex needs petabytes
STATE_FLAGS = {
    "detect-copra": ["detect", "--algorithm", "copra", "--max-labels"],
    "detect-slpa": ["detect", "--algorithm", "slpa", "--memory-size"],
    "sweep-copra": ["sweep", "--algorithm", "copra", "--max-labels-grid"],
    "sweep-slpa": ["sweep", "--algorithm", "slpa", "--memory-sizes"],
}


# from 2**60 int64 elements numpy raises ValueError, not MemoryError; the
# last case grows a held memory-4 run's slots
@pytest.mark.parametrize("argv", [
    *(pytest.param([*flags, size], id=name + suffix)
      for suffix, size in (("", PETA), ("-1e18", str(10**18)), ("-1e19", str(10**19)))
      for name, flags in STATE_FLAGS.items()),
    pytest.param([*STATE_FLAGS["sweep-slpa"], f"4,{10**19}"], id="sweep-slpa-grown-1e19"),
])
def test_a_state_too_large_to_allocate_ends_with_one_line(tri2, capsys, argv):
    code = main([*argv, "--input", str(tri2)])
    out, err = capsys.readouterr()
    if "copra" in argv and not JIT_ENABLED:
        # interpreted COPRA keeps only its label rows: no state grows with the cap
        assert (code, err.count("labelprop:")) == (0, 0)
        return
    # the request fails before anything is allocated, and before a sweep
    # writes its CSV header
    assert code == 1
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("labelprop: Unable to allocate")


@pytest.mark.skipif(JIT_ENABLED, reason="label rows run only interpreted")
def test_interpreted_copra_runs_with_a_petabyte_label_cap(tri2, capsys):
    assert main([*STATE_FLAGS["detect-copra"], PETA, "--input", str(tri2)]) == 0
    library = copra_detect(preprocess(load_graph(tri2)), CopraParams(max_labels=int(PETA)))
    assert parse_tsv(capsys.readouterr().out) == dict(enumerate(library.assignment.tolist()))


class TestLibraryDefaults:
    """With no tuning, grid, seed, workers or repetitions flag, the CLI runs
    what the library runs with its own defaults."""

    @pytest.fixture()
    def ring(self, tmp_path):
        graph = ring_of_cliques(5, 4, self_loops=False)
        path = tmp_path / "ring.txt"
        path.write_text("".join(
            f"{u} {v}\n" for u in range(graph.vertex_count)
            for v in graph.neighbors[graph.offsets[u]:graph.offsets[u + 1]].tolist() if u < v
        ))
        return path, preprocess(load_graph(path))

    @pytest.mark.parametrize("algorithm", ["rak", "copra", "slpa"])
    def test_sweep(self, ring, capsys, algorithm):
        path, graph = ring
        assert main(["sweep", "--algorithm", algorithm, "--input", str(path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        elapsed = header.split(",").index("elapsed_ms")

        def cut(row):
            return row.split(",")[:elapsed] + row.split(",")[elapsed + 1:]

        library = run_sweep(SweepSpec(algorithm), [(str(path), graph)])
        assert [cut(row) for row in rows] == [cut(r.csv_row()) for r in library]

    @pytest.mark.parametrize("algorithm", ["rak", "copra", "slpa"])
    def test_detect(self, ring, capsys, algorithm):
        path, graph = ring
        assert main(["detect", "--algorithm", algorithm, "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        library = run_one(algorithm, graph)
        assert parse_tsv(out) == dict(enumerate(library.assignment.tolist()))
        assert f" iterations={library.iterations} " in err


class TestInfo:
    def test_reports_counts_and_average_degree(self, tri2):
        proc = run_cli("info", str(tri2))
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "graph\tvertices\tedges\tavg_degree"
        name, v, e, d = lines[1].split("\t")
        assert (v, e, d) == ("6", "12", "2.00")

    def test_bad_path_sets_status(self, tri2):
        proc = run_cli("info", "nope.mtx", str(tri2))
        assert proc.returncode == 1
        assert len(proc.stdout.strip().splitlines()) == 2  # header + tri2


class TestBadGraphFile:
    """A malformed graph file gives one ``labelprop:`` line and exit 1, never a traceback."""

    @pytest.fixture()
    def assignment(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("0\t0\n1\t0\n")
        return path

    def argv(self, command, graph, assignment):
        if command == "detect":
            return ["detect", "--algorithm", "rak", "--keep-weights", "--input", str(graph)]
        if command == "score":
            return ["score", "--keep-weights", "--input", str(graph), "--assignment", str(assignment)]
        return ["info", str(graph)]

    @pytest.mark.parametrize("command", ["detect", "score", "info"])
    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe0 1\n", "line 1: not valid UTF-8"),
        (b"0 1 nan\n", "line 1: non-positive or non-finite weight nan"),
        (b"0 1 inf\n", "line 1: non-positive or non-finite weight inf"),
        (b"0 99999999999999999999\n", "line 1: vertex index 99999999999999999999 exceeds"),
    ])
    def test_one_error_line(self, tmp_path, assignment, capsys, command, content, message):
        graph = tmp_path / "bad.txt"
        graph.write_bytes(content)
        assert main(self.argv(command, graph, assignment)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("labelprop: ")
        assert message in err[0]

    @pytest.mark.parametrize("command", ["detect", "sweep"])
    def test_unwritable_output_is_one_error_line(self, tmp_path, tri2, capsys, command):
        out = tmp_path / "missing-dir" / "out.tsv"
        argv = [command, "--algorithm", "rak", "--input", str(tri2), "--output", str(out)]
        if command == "sweep":
            argv += ["--tolerances", "0.05", "--modes", "strict"]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"labelprop: [Errno 2] No such file or directory: '{out}'"
        ]

    def test_sweep_skips_non_utf8_file(self, tmp_path, tri2, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0 1\n")
        code = main([
            "sweep", "--algorithm", "rak", "--input", str(bad), str(tri2),
            "--tolerances", "0.05", "--modes", "strict",
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert err.strip().splitlines() == [f"labelprop: skipping {bad}: line 1: not valid UTF-8 (byte 0xff)"]
        assert len(out.strip().splitlines()) == 2  # header + the tri2 row


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark on a graph or assignment file changes no output."""

    @pytest.mark.parametrize("name, content", [
        ("g.txt", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"),
        ("g.mtx", TRI2_MTX),
        ("g.dat", TRI2_MTX),  # MatrixMarket by its header, not its name
    ], ids=["edge-list", "mtx-name", "mtx-header"])
    @pytest.mark.parametrize("command", ["info", "detect", "score"])
    def test_same_output_as_without_mark(self, tmp_path, capsys, command, name, content):
        graph = tmp_path / name
        tsv = tmp_path / "a.tsv"
        argv = {
            "info": ["info", str(graph)],
            "detect": ["detect", "--algorithm", "rak", "--strict", "--seed", "1",
                       "--input", str(graph)],
            "score": ["score", "--input", str(graph), "--assignment", str(tsv)],
        }[command]
        outputs = []
        for mark in ("", "\ufeff"):
            graph.write_text(mark + content, encoding="utf-8")
            tsv.write_text(mark + "".join(f"{v}\t{v // 3}\n" for v in range(6)), encoding="utf-8")
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
