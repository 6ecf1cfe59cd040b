"""``labelprop sweep`` runs its graphs in forked worker processes.

`labelprop.sweep.sweep_jobs` sets how many at once.  The CLI output
equals the in-process `run_sweep`, row for row and with skip messages in
place, and no worker process outlives `main`.
"""

import contextlib
import errno
import io
import itertools
import multiprocessing
import multiprocessing.pool
import os

import pytest

import labelprop as lp
from labelprop import _backend
from labelprop.cli import main
from labelprop.sweep import CSV_HEADER, sweep_jobs

GRIDS = {
    "rak": (["--tolerances", "0.1,0.01", "--modes", "strict,non-strict"],
            dict(tolerances=(0.1, 0.01), modes=("strict", "non-strict"))),
    "copra": (["--tolerances", "0.1,0.01", "--max-labels-grid", "1,4"],
              dict(tolerances=(0.1, 0.01), max_labels=(1, 4))),
    "slpa": (["--memory-sizes", "4,8", "--modes", "strict,non-strict"],
             dict(memory_sizes=(4, 8), modes=("strict", "non-strict"))),
}


def write_edge_list(path, graph):
    offsets, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    path.write_text("".join(f"{u} {v}\n" for u in range(graph.vertex_count)
                            for v in neighbors[offsets[u]:offsets[u + 1]] if u < v))
    return str(path)


@pytest.fixture()
def inputs(tmp_path):
    """Three graph files with an unparsable one in the middle."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1\n")
    return [
        write_edge_list(tmp_path / "gnp1.txt", lp.gnp(120, 0.05, seed=1)),
        write_edge_list(tmp_path / "ring.txt", lp.ring_of_cliques(6, 5)),
        str(bad),
        write_edge_list(tmp_path / "gnp2.txt", lp.gnp(150, 0.04, seed=2)),
    ]


@pytest.fixture()
def pools(monkeypatch):
    """Four usable CPUs, so that a multi-graph sweep starts a pool on any
    host; the returned list counts the pools' ``imap`` calls."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the platform cannot fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    calls = []
    imap = multiprocessing.pool.Pool.imap

    def counted(self, *args, **kwargs):
        calls.append(args)
        return imap(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "imap", counted)
    return calls


def run_main(argv):
    """(exit code, stdout and stderr as written, in one stream)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


def without_elapsed(text):
    """The lines of ``text``, with the ``elapsed_ms`` column cut from CSV rows."""
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        lines.append(line if line.startswith("labelprop: ") else cells[:9] + cells[10:])
    return lines


@pytest.mark.parametrize("algorithm", list(GRIDS))
def test_cli_sweep_equals_in_process_run_sweep(inputs, pools, algorithm):
    flags, grids = GRIDS[algorithm]
    spec = lp.SweepSpec(algorithm=algorithm, workers=(1, 2), repetitions=2, seed=3, **grids)
    assert sweep_jobs(spec, len(inputs)) > 1
    code, text = run_main(["sweep", "--algorithm", algorithm, "--input", *inputs, *flags,
                           "--workers-grid", "1,2", "--repetitions", "2", "--seed", "3"])
    assert code == 0
    assert len(pools) == 1

    want, graphs = [CSV_HEADER], []
    for path in inputs:
        try:
            graphs.append((path, lp.preprocess(lp.load_graph(path))))
        except lp.GraphParseError as exc:
            graphs.append((path, f"labelprop: skipping {path}: {exc}"))
    records = itertools.groupby(lp.run_sweep(spec, [g for g in graphs if not isinstance(g[1], str)]),
                                key=lambda record: record.graph)
    for path, graph in graphs:
        if isinstance(graph, str):
            want.append(graph)
        else:
            name, rows = next(records)
            assert name == path
            want += [record.csv_row() for record in rows]
    assert len(want) == 1 + 3 * 4 * 2 * 2 + 1  # header, 3 graphs x 4 cells x 2 x 2, skip
    assert without_elapsed(text) == without_elapsed("\n".join(want))


def test_no_worker_outlives_a_sweep(inputs, pools):
    code, _ = run_main(["sweep", "--algorithm", "rak", "--input", *inputs,
                        "--tolerances", "0.1", "--modes", "strict"])
    assert code == 0 and len(pools) == 1
    assert multiprocessing.active_children() == []


class FullAfterHeader(io.StringIO):
    """A stream that takes one line and then fails as a full disk does."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)


def test_no_worker_outlives_a_failed_write(inputs, pools):
    out, err = FullAfterHeader(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--algorithm", "rak", "--input", *inputs,
                     "--tolerances", "0.1", "--modes", "strict"])
    assert code == 1 and len(pools) == 1
    assert out.getvalue() == CSV_HEADER + "\n"
    assert err.getvalue() == f"labelprop: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_output_to_a_full_device_is_one_error_line(inputs, pools, capsys):
    argv = ["sweep", "--algorithm", "rak", "--input", *inputs, "--tolerances", "0.1",
            "--modes", "strict", "--output", "/dev/full"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"labelprop: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("max_threads, cpus, workers, graphs, jobs", [
    (8, 4, (1,), 1, 1),         # one graph
    (1, 1, (1,), 5, 1),         # one usable CPU
    (8, 2, (1, 2), 12, 1),      # compiled, max(workers) = CPUs
    (8, 4, (8,), 12, 1),        # compiled, max(workers) > CPUs
    (8, 8, (1, 2), 12, 4),      # compiled: CPUs // max(workers)
    (8, 8, (1, 2), 3, 3),       # ... at most one job per graph
    (1, 2, (1, 4), 12, 2),      # interpreted: every row runs on one thread
])
def test_sweep_jobs(monkeypatch, max_threads, cpus, workers, graphs, jobs):
    monkeypatch.setattr(_backend, "MAX_THREADS", max_threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert sweep_jobs(lp.SweepSpec(algorithm="rak", workers=workers), graphs) == jobs


@pytest.mark.parametrize("cpus, jobs", [(None, 1), (2, 2)])
def test_sweep_without_sched_getaffinity(monkeypatch, inputs, cpus, jobs):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count may be None
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweep_jobs(lp.SweepSpec(algorithm="rak"), 2) == jobs
    graphs = inputs[:2]
    code, text = run_main(["sweep", "--algorithm", "rak", "--input", *graphs,
                           "--tolerances", "0.1", "--modes", "strict"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == graphs
