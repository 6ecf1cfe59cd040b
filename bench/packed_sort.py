#!/usr/bin/env python3
"""Write BENCH_packed_sort.json: packed-key sorts and the numpy shuffle against their parent.

Usage, from any directory, with two checkouts of the repository (the
parent commit and the change) side by side:

    python3 bench/packed_sort.py --parent DIR --change DIR \\
        --seeds 27301-27310 --trace-seed 27330 --seconds 25 --out BENCH_packed_sort.json

It runs, in order:

1. ``--seeds`` alternating pairs of every workload, by the pair loop of
   ``bench/pairs.py``.  The claim is checked on ``detect-gnp-rak``
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

import json

from pairs import (
    bounds, checkouts, claim_check, paired_workloads, parser, probe, record_head, same_outputs,
    traced_metrics,
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
    args = parser(__doc__.splitlines()[0]).parse_args()
    with checkouts(args) as sides:
        workloads = paired_workloads(sides, args.seeds, args.seconds, bounds(sides["change"]))
        traced = {side: traced_metrics(root, CLAIM[0], args.trace_seed, args.seconds)
                  for side, root in sides.items()}
        outputs = same_outputs(sides, args.trace_seed)

        record = record_head(
            "packed-key sorts (graph._stable_order) for _merge, rak._first_max and slpa._Rounds, "
            "a loop-free Fisher-Yates shuffle, the detect TSV built by one format, and "
            "modularity building the arc rows once",
            "bench/packed_sort.py", sides, args.seeds, args.seconds,
        )
        record.update({
            "claim": f"{CLAIM[0]} {CLAIM[1]} falls; no other end-to-end metric gets worse "
                     "beyond its BENCHMARK.json bound",
            "claim_check": claim_check(workloads, *CLAIM),
            "workloads": workloads,
            "traced": {"workload": CLAIM[0], "seed": args.trace_seed, **traced},
            **outputs,
            "probe_1m": {"recipe": "perfbench/inputs.planted(20000, 50, 10, 2), "
                                   "np.random.default_rng(7); strict RAK, seed 1, tolerance 0.05",
                         **probe(sides, PROBE)},
        })
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(record["claim_check"]))


if __name__ == "__main__":
    main()
