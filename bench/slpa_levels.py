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
3. On the trace seed's files: the detect TSVs of both sides, compared
   byte for byte, and the sweep CSVs, compared row for row without the
   ``elapsed_ms`` column.
4. A one-off probe per side: one strict SLPA run, memory 8, seed 1, on
   ``perfbench/inputs.planted(2000, 50, 10, 2)`` with generator seed 7
   (100k vertices), in a fresh process.
"""

from __future__ import annotations

import json

from pairs import (
    bounds, checkouts, claim_check, paired_workloads, parser, probe, record_head, same_outputs,
    traced_metrics,
)

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


def main():
    args = parser(__doc__.splitlines()[0]).parse_args()
    with checkouts(args) as sides:
        workloads = paired_workloads(sides, args.seeds, args.seconds, bounds(sides["change"]))

        traced = {side: traced_metrics(root, TRACED, args.trace_seed, args.seconds, pin=True)
                  for side, root in sides.items()}
        outputs = same_outputs(sides, args.trace_seed)

        record = record_head(
            "interpreted strict SLPA in numpy rounds (slpa._Rounds) against the per-arc list "
            "kernel, and a numpy modal-label read for both backends",
            "bench/slpa_levels.py", sides, args.seeds, args.seconds,
        )
        record.update({
            "claim": f"{CLAIM[0]} {CLAIM[1]} falls; no other end-to-end metric gets worse "
                     "beyond its BENCHMARK.json bound",
            "claim_check": claim_check(workloads, *CLAIM),
            "workloads": workloads,
            "traced": {"workload": TRACED, "seed": args.trace_seed, "pinned": "taskset -c 0",
                       **traced},
            **outputs,
            "probe_100k": {"recipe": "perfbench/inputs.planted(2000, 50, 10, 2), "
                                     "np.random.default_rng(7); strict, memory_size 8, seed 1",
                           **probe(sides, PROBE)},
        })
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(record["claim_check"]))


if __name__ == "__main__":
    main()
