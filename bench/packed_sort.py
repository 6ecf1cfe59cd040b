#!/usr/bin/env python3
"""Write BENCH_packed_sort.json: packed-key sorts and the numpy shuffle against their parent.

Usage, from any directory, with two checkouts of the repository (the
parent commit and the change) side by side:

    python3 bench/packed_sort.py --parent DIR --change DIR \\
        --seeds 27301-27310 --trace-seed 27330 --seconds 25 --out BENCH_packed_sort.json

It runs, in order:

1. ``--seeds`` alternating pairs of every workload, by the pair loop of
   ``bench/slpa_levels.py``.  The claim is checked on ``detect-gnp-rak``
   ``wall_s``: the change wins at least 9 of 10 pairs and its median gain
   exceeds the parent's interquartile range.
2. One traced run (``--trace 1``) of ``detect-gnp-rak`` per side.
3. On the trace seed's files: the detect TSVs of both sides, compared
   byte for byte, and the sweep CSVs, compared row for row without the
   ``elapsed_ms`` column.
4. A one-off probe per side, in a fresh process: ``from_arcs``,
   ``preprocess``, the visit-order shuffle and one strict RAK run (seed 1,
   default tolerance) on ``perfbench/inputs.planted(20000, 50, 10, 2)``
   with generator seed 7 (1M vertices).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from slpa_levels import (
    WORKLOADS, claim_check, child_env, cli_stdout, numpy_version, paired_workloads, perfbench,
    seeds, sweep_csv,
)

CLAIM = ("detect-gnp-rak", "wall_s")

PROBE = r"""
import hashlib, json, resource, sys, time
import numpy as np
sys.path.insert(0, "perfbench")
import inputs
import labelprop as lp
from labelprop.prng import shuffled_indices
u, v = inputs.planted(20000, 50, 10, 2, np.random.default_rng(7))
out = {}
def timed(name, f):
    began = time.perf_counter()
    value = f()
    out[name] = round(time.perf_counter() - began, 4)
    return value
raw = timed("from_arcs_s", lambda: lp.from_arcs(1_000_000, u, v, np.ones(len(u))))
graph = timed("preprocess_s", lambda: lp.preprocess(raw))
del raw
timed("shuffle_s", lambda: shuffled_indices(graph.vertex_count, 1))
r = timed("rak_detect_s", lambda: lp.rak_detect(graph, lp.RakParams(strict=True, seed=1)))
out.update(iterations=r.iterations, modularity=r.modularity, arcs=int(graph.edge_count),
           assignment_sha256=hashlib.sha256(r.assignment.tobytes()).hexdigest(),
           peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps(out))
"""


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

    workloads = paired_workloads(sides, args.seeds, args.seconds, bounds)
    traced = {}
    for side, root in sides.items():
        argv, result = perfbench(root, CLAIM[0], args.trace_seed, args.seconds, 1)
        traced[side] = {"argv": argv, "metrics": {
            k: round(v["value"], 6) for k, v in result["metrics"].items()
        }}
    for workload in WORKLOADS:
        for root in sides.values():  # the files of the trace seed, written by an untraced run
            perfbench(root, workload, args.trace_seed, 1, 0)
    tsv = {side: cli_stdout(root, WORKLOADS[0], args.trace_seed) for side, root in sides.items()}
    csv_equal = {workload: sweep_csv(sides["parent"], workload, args.trace_seed)
                 == sweep_csv(sides["change"], workload, args.trace_seed)
                 for workload in WORKLOADS[1:]}
    probe = {}
    for side, root in sides.items():
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=child_env(root),
                             capture_output=True, text=True, check=True)
        probe[side] = json.loads(out.stdout)

    record = {
        "what": "packed-key sorts (graph._stable_order) for _merge, rak._first_max and "
                "slpa._Rounds, a loop-free Fisher-Yates shuffle, the detect TSV built by one "
                "format, and modularity building the arc rows once",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0, run from a checkout of each side",
        "script": "bench/packed_sort.py", "pairs": len(args.seeds), "seeds": args.seeds,
        "order": "alternating: parent first on even-indexed seeds, change first on odd; "
                 "seeds outer, workloads inner",
        "machine": {"python": platform.python_version(), "numpy": numpy_version(sides["change"]),
                    "machine": platform.machine(), "nproc": os.cpu_count(),
                    "backend": "python (numba absent)"},
        "claim": f"{CLAIM[0]} {CLAIM[1]} falls; no other end-to-end metric gets worse "
                 "beyond its BENCHMARK.json bound",
        "claim_check": claim_check(workloads, *CLAIM),
        "workloads": workloads,
        "traced": {"workload": CLAIM[0], "seed": args.trace_seed, **traced},
        "detect_tsv_identical": {
            "seed": args.trace_seed, "equal": tsv["parent"] == tsv["change"],
            "sha256": {side: hashlib.sha256(text.encode()).hexdigest()
                       for side, text in tsv.items()},
        },
        "sweep_csv_equal_without_elapsed_ms": {"seed": args.trace_seed, **csv_equal},
        "probe_1m": {"recipe": "perfbench/inputs.planted(20000, 50, 10, 2), "
                               "np.random.default_rng(7); strict RAK, seed 1, tolerance 0.05",
                     **probe},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim_check"]))


if __name__ == "__main__":
    main()
