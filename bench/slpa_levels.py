#!/usr/bin/env python3
"""Write BENCH_slpa_levels.json: strict SLPA in numpy rounds against its parent.

Usage, from any directory, with two checkouts of the repository (the
parent commit and the change) side by side:

    python3 bench/slpa_levels.py --parent DIR --change DIR \\
        --seeds 26911-26920 --trace-seed 26930 --seconds 25 --out BENCH_slpa_levels.json

It runs, in order:

1. ``--seeds`` alternating pairs of ``perfbench/run.py --trace 0`` on every
   workload (parent first on even-indexed seeds, change first on odd ones;
   seeds outer, workloads inner), each run in its own checkout, and
   summarises every end-to-end metric per workload: each side's median and
   quartiles, the pairs the change wins, and whether the change's median is
   within the bound BENCHMARK.json sets.  The claim is checked on
   ``sweep-planted-slpa`` ``wall_s``: the change wins at least 9 of 10
   pairs and its median gain exceeds the parent's interquartile range.
2. One traced run (``--trace 1``) of ``sweep-planted-slpa`` per side under
   ``taskset -c 0``.  One CPU keeps the sweep's files in this process, so
   its spans are recorded; the workload's workers grid is ``(1,)``, so no
   row is dropped.
3. The sweep CSVs of both sides on the trace seed's files, compared row
   for row without the ``elapsed_ms`` column.
4. A one-off probe per side: one strict SLPA run, memory 8, seed 1, on
   ``perfbench/inputs.planted(2000, 50, 10, 2)`` with generator seed 7
   (100k vertices), in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("detect-gnp-rak", "sweep-planted-rak", "sweep-planted-copra", "sweep-planted-slpa")
CLAIM = ("sweep-planted-slpa", "wall_s")
TRACED = "sweep-planted-slpa"

PROBE = r"""
import hashlib, json, resource, sys, time
import numpy as np
sys.path.insert(0, "perfbench")
import inputs
import labelprop as lp
u, v = inputs.planted(2000, 50, 10, 2, np.random.default_rng(7))
graph = lp.preprocess(lp.from_arcs(100_000, u, v, np.ones(len(u))))
held = lp.Held(graph)
began = time.perf_counter()
r = lp.slpa_detect(graph, lp.SlpaParams(memory_size=8, strict=True, seed=1), held)
seconds = time.perf_counter() - began
state = [np.asarray(a, dtype=np.int64) for a in held.run.state]
digest = hashlib.sha256(b"".join(a.tobytes() for a in (r.assignment, *state))).hexdigest()
print(json.dumps({"detect_s": round(seconds, 4), "iterations": r.iterations,
                  "modularity": r.modularity, "arcs": int(graph.edge_count),
                  "state_sha256": digest,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def child_env(side: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    env.pop("LABELPROP_DISABLE_NUMBA", None)
    return env


def perfbench(side: Path, workload: str, seed: int, seconds: float, trace: int, pin=False):
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if pin:
        argv = ["taskset", "-c", "0", *argv]
    out = subprocess.run(argv, cwd=side, env=child_env(side), capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return argv, result


def numpy_version(side: Path) -> str:
    out = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                         env=child_env(side), capture_output=True, text=True, check=True)
    return out.stdout.strip()


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(runs, bounds):
    """Per metric: each side's quartiles, pairs won and the bound check."""
    out = {}
    for metric, (bound, better) in bounds.items():
        sides = {side: [r["metrics"][metric] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        pairs = list(zip(sides["parent"], sides["change"]))
        lower = better == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        change_pct = 100.0 * (change["median"] - parent["median"]) / parent["median"]
        worse_pct = change_pct if lower else -change_pct
        out[metric] = {
            "parent": parent, "change": change, "change_better_pairs": won,
            "equal_pairs": sum(p == c for p, c in pairs), "pairs": len(pairs),
            "median_change_pct": round(change_pct, 2), "bound": bound,
            "within_bound": worse_pct <= 100.0 * bound,
        }
    return out


def sweep_csv(side: Path, workload: str, seed: int) -> list[list[str]]:
    """The CSV rows of one sweep workload's CLI call, less ``elapsed_ms``."""
    run_dir = side / ".perfbench" / f"{workload}-seed{seed}-trace0"
    report = json.loads((run_dir / "report.json").read_text())
    out = subprocess.run([sys.executable, "-m", "labelprop", *report["argv"]], cwd=run_dir,
                         env=child_env(side), capture_output=True, text=True, check=True)
    rows = [line.split(",") for line in out.stdout.splitlines()]
    drop = rows[0].index("elapsed_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}

    runs = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for position, side in enumerate(order):
                argv, result = perfbench(sides[side], workload, seed, args.seconds, 0)
                runs[workload].append({
                    "seed": seed, "side": side, "position": position, "argv": argv,
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                })
                print(workload, seed, side, runs[workload][-1]["metrics"], file=sys.stderr)
    workloads = {}
    for workload, rows in runs.items():
        workloads[workload] = dict(summarise(rows, bounds), runs=rows, failed={
            side: sum(r["failed"] for r in rows if r["side"] == side) for side in sides
        }, attempted={side: sum(r["attempted"] for r in rows if r["side"] == side)
                      for side in sides})
    claim = workloads[CLAIM[0]][CLAIM[1]]
    gain = claim["parent"]["median"] - claim["change"]["median"]
    iqr = claim["parent"]["q3"] - claim["parent"]["q1"]

    traced = {}
    for side, root in sides.items():
        argv, result = perfbench(root, TRACED, args.trace_seed, args.seconds, 1, pin=True)
        traced[side] = {"argv": argv, "metrics": {
            k: round(v["value"], 6) for k, v in result["metrics"].items()
        }}
    csv_equal = {}
    for workload in WORKLOADS[1:]:
        for root in sides.values():  # the files of the trace seed, written by an untraced run
            perfbench(root, workload, args.trace_seed, 1, 0)
        csv_equal[workload] = sweep_csv(sides["parent"], workload, args.trace_seed) == sweep_csv(
            sides["change"], workload, args.trace_seed)
    probe = {}
    for side, root in sides.items():
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=child_env(root),
                             capture_output=True, text=True, check=True)
        probe[side] = json.loads(out.stdout)

    record = {
        "what": "interpreted strict SLPA in numpy rounds (slpa._Rounds) against the per-arc "
                "list kernel, and a numpy modal-label read for both backends",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0, run from a checkout of each side",
        "script": "bench/slpa_levels.py", "pairs": len(args.seeds), "seeds": args.seeds,
        "order": "alternating: parent first on even-indexed seeds, change first on odd; "
                 "seeds outer, workloads inner",
        "machine": {"python": platform.python_version(), "numpy": numpy_version(sides["change"]),
                    "machine": platform.machine(), "nproc": os.cpu_count(),
                    "backend": "python (numba absent)"},
        "claim": f"{CLAIM[0]} {CLAIM[1]} falls; no other end-to-end metric gets worse "
                 "beyond its BENCHMARK.json bound",
        "claim_check": {
            "workload": CLAIM[0], "metric": CLAIM[1], "pairs": claim["pairs"],
            "change_better_pairs": claim["change_better_pairs"],
            "median_gain_s": round(gain, 4), "parent_iqr_s": round(iqr, 4),
            "median_change_pct": claim["median_change_pct"],
            "met": claim["change_better_pairs"] >= 0.9 * claim["pairs"] and gain > iqr,
        },
        "workloads": workloads,
        "traced": {"workload": TRACED, "seed": args.trace_seed, "pinned": "taskset -c 0",
                   **traced},
        "sweep_csv_equal_without_elapsed_ms": {"seed": args.trace_seed, **csv_equal},
        "probe_100k": {"recipe": "perfbench/inputs.planted(2000, 50, 10, 2), "
                                 "np.random.default_rng(7); strict, memory_size 8, seed 1",
                       **probe},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim_check"]))


if __name__ == "__main__":
    main()
