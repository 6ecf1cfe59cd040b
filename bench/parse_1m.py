#!/usr/bin/env python3
"""Write BENCH_parse_1m.json: `load_graph` and `preprocess` of a 1M-vertex edge list, per side.

Usage, from any directory, with two checkouts of the repository (the
parent commit and the change) side by side:

    python3 bench/parse_1m.py --parent DIR --change DIR --repeats 3 --out BENCH_parse_1m.json

One edge list of ``perfbench/inputs.gnp(1_000_000, 10)`` (generator seed
``--seed``, about 69 MB) is written to a temporary directory.  Then, for
``--repeats`` rounds (parent first in even rounds, change first in odd
ones), each side loads it in a fresh process from its own checkout and
reports the seconds of `load_graph` and of `preprocess`, ``VmHWM`` (the
process's peak resident set, from ``/proc/self/status``) after each, and
a sha256 of the preprocessed CSR arrays, which must agree between sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from pairs import checkouts, machine, probe, side_options

PROBE = r"""
import hashlib, json, sys, time
import labelprop as lp
def hwm_mib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
out = {}
began = time.perf_counter()
raw = lp.load_graph(sys.argv[1])
out["load_graph_s"] = round(time.perf_counter() - began, 4)
out["vmhwm_after_load_mib"] = round(hwm_mib(), 1)
began = time.perf_counter()
graph = lp.preprocess(raw)
out["preprocess_s"] = round(time.perf_counter() - began, 4)
out["vmhwm_after_preprocess_mib"] = round(hwm_mib(), 1)
digest = hashlib.sha256()
for a in (graph.offsets, graph.neighbors, graph.weights):
    digest.update(a.tobytes())
out["csr_sha256"] = digest.hexdigest()
print(json.dumps(out))
"""


def main():
    cli = side_options(argparse.ArgumentParser(description=__doc__.splitlines()[0]))
    cli.add_argument("--seed", type=int, default=31)
    cli.add_argument("--repeats", type=int, default=3)
    cli.add_argument("--out", type=Path, required=True)
    args = cli.parse_args()
    with checkouts(args) as sides, tempfile.TemporaryDirectory(prefix="parse-1m-") as tmp:
        sys.path.insert(0, str(sides["change"] / "perfbench"))
        import inputs

        rng = np.random.default_rng(args.seed)
        path = Path(tmp) / "gnp-1m.txt"
        lo, hi = inputs.gnp(1_000_000, 10, rng)
        inputs.write_edge_list(path, lo, hi, rng)
        del lo, hi
        runs = {"parent": [], "change": []}
        for i in range(args.repeats):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(probe({side: sides[side]}, PROBE, str(path))[side])
                print(side, runs[side][-1], file=sys.stderr)
        size = path.stat().st_size
        host = machine(sides["change"])
    medians = {side: {k: statistics.median(r[k] for r in rows) for k in rows[0]
                      if k != "csr_sha256"} for side, rows in runs.items()}
    record = {
        "what": "load_graph and preprocess of a 1M-vertex G(n, p) edge list, each side in a "
                "fresh process per run; VmHWM is the process's peak resident set so far",
        "script": "bench/parse_1m.py",
        "recipe": f"perfbench/inputs.gnp(1_000_000, 10), np.random.default_rng({args.seed}), "
                  "written by inputs.write_edge_list",
        "machine": host,
        "file_bytes": size,
        "repeats": args.repeats,
        "order": "parent first in even rounds, change first in odd ones",
        "same_csr": len({r["csr_sha256"] for rows in runs.values() for r in rows}) == 1,
        "median": medians,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"same_csr": record["same_csr"], "median": medians}))


if __name__ == "__main__":
    main()
