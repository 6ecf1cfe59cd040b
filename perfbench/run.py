#!/usr/bin/env python3
"""labelprop benchmark: the real CLI on four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload detect-gnp-rak --seed 1 --seconds 25 --trace 0

Load shape: one client, closed loop.  This process starts one
``python -m labelprop`` process at a time and waits for it to exit before
starting the next, for ``--seconds`` seconds and at least three times;
two set-up processes on a tiny input precede each measured one.
Inputs are generated from ``--seed`` with numpy (see ``inputs.py``) and
written under ``.perfbench/`` before any timing starts.  Children run
without ``-O``, as users run the CLI, so the symmetry check is on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same CLI in this process through
``labelprop.cli.main(argv)``, alternating a plain run with one whose
layer entry points are wrapped by span recorders (``spans.py``), and
reports the per-layer metrics.

Every output is checked (``check.py``).  The last stdout line is the
result object; a fuller report, with input provenance, the machine, the
backend and the sha256 of every strict single-worker assignment, is
printed above it and written to the run's directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

MIN_SAMPLES = 3        # CLI processes per untraced run, whatever --seconds says
SETUP_PER_STEP = 2     # set-up processes before each measured one
RUN_BUDGET_S = 120.0   # start no new sample after this, so a run ends well within 180 s
PROCESS_TIMEOUT_S = 150.0

# End-to-end metrics on the result line of an untraced run.  first_row_s is
# printed above it but not gated: on sweeps it is interpreter start-up plus
# one 2-8 iteration row, and its seed-to-seed spread reached 0.23 of its
# median, against the largest bound BENCHMARK.json may set, 0.25.
GATED = ("setup_s", "wall_s", "peak_rss_mb", "modularity", "iterations")


@dataclass(frozen=True)
class Workload:
    """One CLI call; why each exists is in BENCHMARK.json and README.md."""

    algorithm: str
    recipe: dict          # inputs.make_graph_file recipe of each measured file
    files: int            # measured files, all passed to one CLI call
    tiny: dict            # recipe of the one-file set-up input
    grid: dict | None     # sweep grids; None for detect

    def argv(self, names: list[str]) -> list[str]:
        if self.grid is None:
            return ["detect", "--algorithm", self.algorithm, "--strict", "--threads", "1",
                    "--seed", "1", "--input", *names]
        flags = {"tolerances": "--tolerances", "max_labels": "--max-labels-grid",
                 "memory_sizes": "--memory-sizes", "modes": "--modes",
                 "workers": "--workers-grid"}
        out = ["sweep", "--algorithm", self.algorithm, "--seed", "1"]
        for key, values in self.grid.items():
            out += [flags[key], ",".join(map(str, values))]
        return out + ["--input", *names]

    def expected_rows(self, names: list[str]) -> list[dict]:
        """The grid cells of each sweep row, in the documented order:
        per graph, rak tolerance x mode, copra tolerance x max_labels,
        slpa memory_size x mode; then workers."""
        g = self.grid
        if self.algorithm == "rak":
            combos = [{"tolerance": t, "mode": m} for t in g["tolerances"] for m in g["modes"]]
        elif self.algorithm == "copra":
            combos = [{"tolerance": t, "max_labels": k, "mode": ""}
                      for t in g["tolerances"] for k in g["max_labels"]]
        else:
            combos = [{"memory_size": s, "mode": m} for s in g["memory_sizes"] for m in g["modes"]]
        return [dict(c, graph=name, algorithm=self.algorithm, workers=w, seed=1)
                for name in names for c in combos for w in g["workers"]]


WORKERS = (1, 2) if NPROC >= 2 else (1,)
# 10 blocks of 50, in-degree 8, out-degree 4: strict RAK floods part of
# the graph and tight tolerances run 10-18 iterations.  Twelve small
# graphs per call average out the seed-to-seed swing of one graph (how far
# strict mode floods moves a single graph's Q by a factor of ten).
PLANTED = {"kind": "planted", "blocks": 10, "size": 50, "k_in": 8, "k_out": 4}
TINY_PLANTED = {"kind": "planted", "blocks": 4, "size": 10, "k_in": 6, "k_out": 1}

WORKLOADS = {
    "detect-gnp-rak": Workload(
        algorithm="rak",
        recipe={"kind": "gnp", "n": 100_000, "avg_degree": 10}, files=1,
        tiny={"kind": "gnp", "n": 300, "avg_degree": 10}, grid=None),
    "sweep-planted-rak": Workload(
        algorithm="rak", recipe=PLANTED, files=12, tiny=TINY_PLANTED,
        grid={"tolerances": (0.1, 0.001), "modes": ("strict", "non-strict"), "workers": WORKERS}),
    "sweep-planted-copra": Workload(
        algorithm="copra",
        # COPRA collapses to one community (Q = 0) on a seed-dependent share
        # of rows of the in-8/out-4 graph, so its mean Q swings by about a
        # quarter between seeds; in-10/out-2 keeps the communities apart.
        recipe=dict(PLANTED, k_in=10, k_out=2), files=12, tiny=TINY_PLANTED,
        grid={"tolerances": (0.1, 0.01), "max_labels": (1, 4, 8), "workers": (1,)}),
    "sweep-planted-slpa": Workload(
        algorithm="slpa", recipe=PLANTED, files=12, tiny=TINY_PLANTED,
        grid={"memory_sizes": (4, 16), "modes": ("strict", "non-strict"), "workers": (1,)}),
}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, problems=()):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.problems.extend(problems)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "LABELPROP_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    env["NUMBA_NUM_THREADS"] = str(NPROC)
    return env


PROBE = """
import json, sys, numpy, labelprop
try:
    import numba
    numba_ok = True
except ImportError:
    numba_ok = False
print(json.dumps({
    "backend": "numba" if labelprop.JIT_ENABLED else "python",
    "JIT_ENABLED": labelprop.JIT_ENABLED,
    "numba_importable": numba_ok,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "debug": __debug__,
    "labelprop": labelprop.__file__,
}))
"""


def machine(cwd: Path) -> dict:
    """Backend and machine fields, read from a child started like the CLI."""
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=cwd, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(out.stdout)
    if not Path(info["labelprop"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"children import labelprop from {info['labelprop']}, not {SRC}")
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return dict(info, nproc=NPROC, NUMBA_NUM_THREADS=NPROC, cpu=cpu,
                machine=platform.machine(), system=platform.system())


def run_cli(argv: list[str], cwd: Path, header_lines: int) -> dict:
    """One ``python -m labelprop`` process, timed from spawn to exit.

    ``first_row_s`` is when stdout holds its first line past the header;
    ``peak_rss_mb`` is the child's maximum RSS from ``os.wait4``.
    """
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "labelprop", *argv], cwd=cwd,
                                env=child_env(), stdout=subprocess.PIPE, stderr=err)
        fd = proc.stdout.fileno()
        chunks, newlines, first_row = [], 0, None
        while True:
            left = start + PROCESS_TIMEOUT_S - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()  # reported through the exit code
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if first_row is None:
                newlines += chunk.count(b"\n")
                if newlines > header_lines:
                    first_row = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return {
        "wall_s": wall,
        "first_row_s": first_row,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "stdout": b"".join(chunks),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


class Inputs:
    """The generated files of one run and what the checks need of them."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        ext = ".txt" if wl.recipe["kind"] == "gnp" else ".mtx"
        self.records = [inputs.make_graph_file(workdir / f"g{i:02d}{ext}", wl.recipe, seed, i)
                        for i in range(wl.files)]
        self.tiny = inputs.make_graph_file(workdir / f"tiny{ext}", wl.tiny, seed, 1000)
        self.names = [r["file"] for r in self.records]

    @staticmethod
    def graph(record):
        """The preprocessed graph, built from the generator's arrays rather
        than by parsing the file, so a parse error cannot hide itself."""
        import labelprop as lp

        n, lo, hi = record["arrays"]
        raw = lp.from_arcs(n, np.concatenate([lo, hi]), np.concatenate([hi, lo]),
                           np.ones(2 * lo.size))
        return lp.preprocess(raw)

    def provenance(self) -> list[dict]:
        return [{k: v for k, v in r.items() if k != "arrays"} for r in self.records + [self.tiny]]


class Checker:
    """Checks one CLI output of a workload and books it in a Tally."""

    def __init__(self, wl: Workload, names: list[str], records: list[dict], tally: Tally):
        self.wl, self.tally, self.first_rows = wl, tally, None
        if wl.grid is None:
            import labelprop as lp

            graph = Inputs.graph(records[0])
            self.vertices = graph.vertex_count
            self.q_of = lambda labels: lp.modularity(graph, labels)
        else:
            self.expected = wl.expected_rows(names)

    def __call__(self, code: int, stdout: bytes, stderr: str, repeat: bool = True):
        """Returns (iterations, modularity, facts) when the output passed."""
        head = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
        if self.wl.grid is None:
            problems, facts = check.check_detect(stdout, stderr, self.vertices, self.q_of)
            problems = head + problems
            self.tally.add(not problems, problems)
            return (facts["iterations"], facts["modularity"], facts) if not problems else None
        problems, rows = check.check_sweep(stdout, self.expected)
        problems = head + problems
        if repeat and self.first_rows is not None:
            for i in check.repeat_mismatches(self.first_rows, rows):
                problems.append(f"row {i + 1}: workers=1 result differs from the first repeat")
                rows[i] = None
        if repeat and self.first_rows is None:
            self.first_rows = rows
        self.tally.add(not problems, problems)
        for row in rows:
            self.tally.add(row is not None)
        if problems:
            return None
        return (sum(r["iterations"] for r in rows),
                statistics.fmean(r["modularity"] for r in rows), {})


def timed_loop(seconds: float, t_begin: float, step, min_steps: int) -> None:
    """Call ``step()`` at least ``min_steps`` times, then while another
    step of the median length still ends within ``seconds``."""
    t0 = time.perf_counter()
    lengths: list[float] = []
    while len(lengths) < min_steps or (
            time.perf_counter() - t0 + statistics.median(lengths) <= seconds):
        if lengths and time.perf_counter() - t_begin > RUN_BUDGET_S:
            break
        t = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - t)


def measure_end_to_end(wl, data: Inputs, workdir: Path, seconds: float, t_begin: float, tally):
    header = 0 if wl.grid is None else 1
    setup_check = Checker(wl, [data.tiny["file"]], [data.tiny], tally)
    checker = Checker(wl, data.names, data.records, tally)
    setup, samples = [], []

    def step():
        # Set-up samples are spread over the run, like the measured ones,
        # so that their median sees the same spells of a busy host.
        for _ in range(SETUP_PER_STEP):
            r = run_cli(wl.argv([data.tiny["file"]]), workdir, header)
            setup_check(r["code"], r["stdout"], r["stderr"], repeat=False)
            setup.append(r["wall_s"])
        r = run_cli(wl.argv(data.names), workdir, header)
        r["result"] = checker(r["code"], r["stdout"], r["stderr"])
        samples.append(r)

    timed_loop(seconds, t_begin, step, MIN_SAMPLES)
    good = [s for s in samples if s["result"] is not None]
    if not good:
        return None, {}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(s["wall_s"] for s in good), "s"),
        "first_row_s": (statistics.median(s["first_row_s"] for s in good), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in good), "MiB"),
        "modularity": (statistics.median(s["result"][1] for s in good), "Q"),
        "iterations": (statistics.median(s["result"][0] for s in good), "count"),
    }
    extra = {"samples": [{k: s[k] for k in ("wall_s", "first_row_s", "peak_rss_mb", "code")}
                         for s in samples],
             "setup_samples_s": setup}
    if wl.grid is None:
        extra["assignment_sha256"] = [{"graph": data.names[0], "sha256": good[0]["result"][2]["sha256"]}]
    return metrics, extra


def call_main(argv: list[str], out_path: Path, recorder=None, on_run_one=None):
    """``labelprop.cli.main(argv)`` in this process, stdout/stderr to files.

    Returns (exit code, wall seconds, stderr text)."""
    import labelprop.cli as cli

    err = []
    with open(out_path, "w", encoding="utf-8", newline="\n") as out, \
            open(out_path.with_suffix(".err"), "w", encoding="utf-8") as errf, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(errf):
        start = time.perf_counter()
        try:
            if recorder is None:
                code = cli.main(argv)
            else:
                with spans.instrument(recorder, on_run_one), recorder.span("cli.main"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program is a failed operation, not ours
            err.append(traceback.format_exc())
            code = 1
        wall = time.perf_counter() - start
    return code, wall, out_path.with_suffix(".err").read_text(encoding="utf-8") + "".join(err)


def tsv_sha256(assignment) -> str:
    text = "".join(f"{v}\t{c}\n" for v, c in enumerate(np.asarray(assignment).tolist()))
    return hashlib.sha256(text.encode()).hexdigest()


def measure_layers(wl, data: Inputs, workdir: Path, seconds: float, t_begin: float, tally):
    # The first CLI call in this process against a warm one, on the tiny
    # input and before anything else runs a kernel: the JIT compile (or
    # cache load) cost.
    tiny_argv = wl.argv([data.tiny["file"]])
    calls = [call_main(tiny_argv, workdir / "tiny.out")[1] for _ in range(2)]
    first_call = calls[0] - calls[1]

    checker = Checker(wl, data.names, data.records, tally)
    argv = wl.argv(data.names)
    out = workdir / "out.txt"
    plain, traced, dispatched = [], [], []

    def step():
        code, plain_wall, err = call_main(argv, out, None)
        if checker(code, out.read_bytes(), err) is None:
            return
        rec = spans.Recorder()
        runs = []
        code, _, err = call_main(argv, out, rec,
                                    lambda span, r, args, kw: runs.append((kw, r.assignment)))
        if checker(code, out.read_bytes(), err) is None:
            return
        m = spans.layer_metrics(rec.spans)
        if abs(m["trace.self_sum_s"] - m["trace.wall_s"]) > 1e-6:
            tally.add(False, [f"self times sum to {m['trace.self_sum_s']} s, traced wall is "
                              f"{m['trace.wall_s']} s"])
        m["cli.output_bytes"] = out.stat().st_size
        plain.append(plain_wall)
        traced.append(m)
        if not dispatched:
            dispatched.extend(runs)

    timed_loop(seconds, t_begin, step, 1)
    if not traced:
        return None, {}
    names = list(traced[0])
    metrics = {k: (statistics.median(m[k] for m in traced), unit_of(k)) for k in names
               if k != "trace.self_sum_s"}
    # Each traced run follows its plain twin directly, so the pairwise
    # difference is less exposed to the host's speed drifting between them.
    metrics["trace.overhead_s"] = (statistics.median(
        m["trace.wall_s"] - p for m, p in zip(traced, plain)), "s")
    metrics["backend.first_call_s"] = (first_call, "s")
    rows = [{"graph": data.names[0]}] if wl.grid is None else wl.expected_rows(data.names)
    hashes = [dict(row, sha256=tsv_sha256(a)) for row, (kw, a) in zip(rows, dispatched)
              if kw.get("mode") == "strict" and kw.get("workers", 1) == 1]
    return metrics, {"assignment_sha256": hashes, "traced_walls_s": [m["trace.wall_s"] for m in traced],
                     "plain_walls_s": plain}


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name.endswith(".iterations") or name == "sweep.rows":
        return "count"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("arc_visits_per_s"):
        return "arcs/s"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_begin = time.perf_counter()

    if not (SRC / "labelprop" / "__init__.py").is_file():
        print(f"perfbench: no labelprop package under {SRC}", file=sys.stderr)
        return 2
    os.environ["NUMBA_NUM_THREADS"] = str(NPROC)
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    data = Inputs(wl, args.seed, workdir)
    host = machine(workdir)

    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    os.chdir(workdir)  # in-process runs resolve the same relative input names
    metrics, extra = measure(wl, data, workdir, args.seconds, t_begin, tally)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "argv": wl.argv(data.names), "machine": host, "inputs": data.provenance(),
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_frac": tally.failed / max(tally.attempted, 1),
              "problems": tally.problems[:50],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
              **extra}
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(host))
    for rec in report["inputs"]:
        print("input " + json.dumps(rec))
    for h in report.get("assignment_sha256", []):
        print("assignment " + json.dumps(h))
    for problem in report["problems"]:
        print(f"problem {problem}")
    print(f"failed_frac {tally.failed}/{tally.attempted} = {report['failed_frac']:.6f}")
    if metrics is None:
        print("perfbench: no output passed its checks, nothing to report", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name.endswith("arc_visits_per_s") else ""
        print(f"metric {name:<30} {value:>16.6f} {unit}{label}")
    print(f"report {workdir / 'report.json'}")
    result = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
              if args.trace or k in GATED}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
