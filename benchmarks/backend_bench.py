#!/usr/bin/env python3
"""Compare the compiled (numba) and interpreted backends.

Runs each detector on a generated G(n, p) graph once per backend and prints
a timing table.  The backend is fixed at import time by
LABELPROP_DISABLE_NUMBA, so each pass runs in a subprocess.  Where numba
cannot be imported both passes run the interpreter, and only the
interpreter column is printed.

Usage:
    python benchmarks/backend_bench.py [--vertices N] [--degree D] [--threads T]
"""

import argparse
import json
import os
import subprocess
import sys


def run_suite(vertices: int, degree: float, threads: int) -> dict:
    import labelprop as lp

    p = degree / (vertices - 1)
    g = lp.gnp(vertices, p, seed=7)
    results = {"backend": "numba" if lp.JIT_ENABLED else "python", "timings": {}}

    runs = [
        ("rak strict", lambda: lp.rak_detect(g, lp.RakParams(strict=True, seed=1))),
        ("rak non-strict", lambda: lp.rak_detect(g, lp.RakParams(strict=False, seed=1))),
        ("copra ml=8", lambda: lp.copra_detect(
            g, lp.CopraParams(max_labels=8, max_iterations=20, seed=1))),
        ("slpa ms=10", lambda: lp.slpa_detect(g, lp.SlpaParams(memory_size=10, seed=1))),
    ]
    if threads > 1:
        runs.append((f"rak strict x{threads}", lambda: lp.rak_detect(
            g, lp.RakParams(strict=True, seed=1, workers=threads))))

    for name, fn in runs:
        fn()  # warm-up: JIT compilation and caches
        res = fn()
        results["timings"][name] = {
            "seconds": res.elapsed,
            "iterations": res.iterations,
            "modularity": res.modularity,
        }
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=20_000)
    parser.add_argument("--degree", type=float, default=10.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--emit-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.emit_json:
        print(json.dumps(run_suite(args.vertices, args.degree, args.threads)))
        return 0

    print(f"graph: gnp vertices={args.vertices} avg_degree={args.degree}")
    tables = {}
    for disable in ("0", "1"):
        env = dict(os.environ, LABELPROP_DISABLE_NUMBA=disable)
        out = subprocess.run(
            [sys.executable, __file__, "--emit-json",
             "--vertices", str(args.vertices), "--degree", str(args.degree),
             "--threads", str(args.threads)],
            env=env, capture_output=True, text=True, check=True,
        )
        data = json.loads(out.stdout.strip().splitlines()[-1])
        tables[data["backend"]] = data["timings"]

    if "numba" not in tables:
        # Both passes ran the interpreter; there is nothing to compare.
        print("numba is not importable here: interpreter timings only")
        names = list(tables["python"])
        width = max(len(n) for n in names)
        print(f"{'detector':<{width}}  {'python':>10}")
        for name in names:
            print(f"{name:<{width}}  {tables['python'][name]['seconds']:>9.3f}s")
        return 0

    names = list(tables["numba"])
    width = max(len(n) for n in names)
    print(f"{'detector':<{width}}  {'numba':>10}  {'python':>10}  {'speedup':>8}")
    for name in names:
        jit = tables["numba"][name]["seconds"]
        py = tables.get("python", {}).get(name, {}).get("seconds")
        if py is None:
            print(f"{name:<{width}}  {jit:>9.3f}s  {'-':>10}  {'-':>8}")
        else:
            print(f"{name:<{width}}  {jit:>9.3f}s  {py:>9.3f}s  {py / jit:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
