#!/usr/bin/env python3
"""Alternating pairs of perfbench runs of two checkouts, and a BENCH record of them.

Usage, from any directory, with two checkouts of the repository (the
parent commit and the change) side by side:

    python3 bench/pairs.py --parent DIR --change DIR --seeds 28101-28110 \\
        --seconds 25 --claim none --what "..." --out BENCH_x.json

or with two revisions of the repository that holds this script, which it
checks out as fresh worktrees for the run (`worktrees`):

    python3 bench/pairs.py --parent-rev main~1 --change-rev main ...

It runs, in order:

1. ``--seeds`` (at least two) alternating pairs of ``perfbench/run.py
   --trace 0`` on every workload (parent first on even-indexed seeds,
   change first on odd ones; seeds outer, workloads inner), each run in
   its own checkout, and summarises every end-to-end metric per workload:
   each side's median and quartiles, those of the paired differences
   (change - parent, which cancel what the seeds' graphs add to both
   sides' spread), the pairs the change wins, and whether the change's
   median is within the bound BENCHMARK.json sets.
2. ``--claim WORKLOAD:METRIC`` checks a claimed gain: the change wins at
   least 9 of 10 pairs and its median gain exceeds the parent's
   interquartile range.  ``--claim none`` claims nothing and records only
   the bound checks.
3. On the last seed's files, which its paired runs left in each side's
   checkout: the detect TSVs, compared byte for byte, and the sweep CSVs,
   compared row for row without the ``elapsed_ms`` column.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

WORKLOADS = ("detect-gnp-rak", "sweep-planted-rak", "sweep-planted-copra", "sweep-planted-slpa")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def child_env(side: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    env.pop("LABELPROP_DISABLE_NUMBA", None)
    return env


def perfbench(side: Path, workload: str, seed: int, seconds: float):
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=side, env=child_env(side), capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return argv, result


def bounds(side: Path) -> dict:
    """Each end-to-end metric's (bound, better) from a checkout's BENCHMARK.json."""
    benchmark = json.loads((side / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(runs, bounds):
    """Per metric: each side's quartiles, the quartiles of the paired
    differences (change - parent, per pair), pairs won and the bound check.
    The i-th parent run and the i-th change run are a pair."""
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
            "parent": parent, "change": change,
            "paired_difference": quartiles([c - p for p, c in pairs]),
            "change_better_pairs": won,
            "equal_pairs": sum(p == c for p, c in pairs), "pairs": len(pairs),
            "median_change_pct": round(change_pct, 2), "bound": bound,
            "within_bound": worse_pct <= 100.0 * bound,
        }
    return out


def paired_workloads(sides: dict, seeds: list[int], seconds: float, bounds: dict) -> dict:
    """Alternating pairs of untraced runs of every workload (parent first on
    even-indexed seeds, change first on odd ones; seeds outer, workloads
    inner), each run in its side's checkout, summarised per workload with
    every run kept."""
    runs = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for position, side in enumerate(order):
                argv, result = perfbench(sides[side], workload, seed, seconds)
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
    return workloads


def claim_check(workloads: dict, workload: str, metric: str) -> dict:
    """Whether the change wins at least 9 of 10 pairs on the claimed metric
    and its median gain exceeds the parent's interquartile range."""
    claim = workloads[workload][metric]
    gain = claim["parent"]["median"] - claim["change"]["median"]
    iqr = claim["parent"]["q3"] - claim["parent"]["q1"]
    return {
        "workload": workload, "metric": metric, "pairs": claim["pairs"],
        "change_better_pairs": claim["change_better_pairs"],
        "median_gain_s": round(gain, 4), "parent_iqr_s": round(iqr, 4),
        "median_change_pct": claim["median_change_pct"],
        "met": claim["change_better_pairs"] >= 0.9 * claim["pairs"] and gain > iqr,
    }


def bounds_check(workloads: dict, bounds: dict) -> dict:
    """Per workload: the metrics whose change median is beyond their bound,
    and each side's failed operations."""
    return {workload: {
        "beyond_bound": [m for m in bounds if not summary[m]["within_bound"]],
        "failed": summary["failed"],
    } for workload, summary in workloads.items()}


def cli_stdout(side: Path, workload: str, seed: int) -> str:
    """The stdout of one workload's CLI call on the files an untraced run wrote."""
    run_dir = side / ".perfbench" / f"{workload}-seed{seed}-trace0"
    report = json.loads((run_dir / "report.json").read_text())
    out = subprocess.run([sys.executable, "-m", "labelprop", *report["argv"]], cwd=run_dir,
                         env=child_env(side), capture_output=True, text=True, check=True)
    return out.stdout


def sweep_csv(side: Path, workload: str, seed: int) -> list[list[str]]:
    """The CSV rows of one sweep workload's CLI call, less ``elapsed_ms``."""
    rows = [line.split(",") for line in cli_stdout(side, workload, seed).splitlines()]
    drop = rows[0].index("elapsed_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


def same_outputs(sides: dict, seed: int) -> dict:
    """On one paired seed's files, left by its runs in each side's checkout:
    the detect TSVs compared byte for byte and the sweep CSVs without
    ``elapsed_ms``."""
    tsv = {side: cli_stdout(root, WORKLOADS[0], seed) for side, root in sides.items()}
    return {
        "detect_tsv_identical": {
            "seed": seed, "equal": tsv["parent"] == tsv["change"],
            "sha256": {side: hashlib.sha256(text.encode()).hexdigest()
                       for side, text in tsv.items()},
        },
        "sweep_csv_equal_without_elapsed_ms": {"seed": seed, **{
            workload: sweep_csv(sides["parent"], workload, seed)
            == sweep_csv(sides["change"], workload, seed) for workload in WORKLOADS[1:]
        }},
    }


def numpy_version(side: Path) -> str:
    out = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                         env=child_env(side), capture_output=True, text=True, check=True)
    return out.stdout.strip()


def record_head(what: str, sides: dict, seeds: list[int], seconds: float) -> dict:
    """The fields every BENCH record opens with: what was measured, how, in
    which order and on which machine."""
    return {
        "what": what,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0, run from a checkout of each side",
        "script": "bench/pairs.py", "pairs": len(seeds), "seeds": seeds,
        "order": "alternating: parent first on even-indexed seeds, change first on odd; "
                 "seeds outer, workloads inner",
        "machine": machine(sides["change"]),
    }


def machine(side: Path) -> dict:
    """The machine a record was measured on, with ``side``'s numpy version."""
    return {"python": platform.python_version(), "numpy": numpy_version(side),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "backend": "python (numba absent)"}


@contextlib.contextmanager
def worktrees(repo: Path, revs: dict):
    """Fresh detached ``git worktree`` checkouts of ``revs`` (side -> revision
    of ``repo``), made the same way in one new temporary directory and
    removed on exit.

    Both sides then start alike, with no ``__pycache__`` and no
    ``.perfbench`` from earlier runs.  Under ``PYTHONDONTWRITEBYTECODE=1`` a
    checkout whose ``__pycache__`` is stale compiles every module at each
    CLI start, which a pair of an old and a fresh checkout would measure.
    """
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        made = {}
        try:
            for side, rev in revs.items():
                path = Path(scratch) / side
                subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", str(path),
                                rev], check=True, stdout=subprocess.DEVNULL)
                made[side] = path
            yield made
        finally:
            for path in made.values():
                subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                str(path)], check=True)


@contextlib.contextmanager
def checkouts(args):
    """Each side's checkout: ``--parent`` and ``--change`` as given, or
    `worktrees` of ``--parent-rev`` and ``--change-rev``."""
    dirs, revs = (args.parent, args.change), (args.parent_rev, args.change_rev)
    if all(dirs) and not any(revs):
        yield {"parent": args.parent.resolve(), "change": args.change.resolve()}
    elif all(revs) and not any(dirs):
        with worktrees(REPO, {"parent": args.parent_rev, "change": args.change_rev}) as sides:
            yield sides
    else:
        raise SystemExit("give --parent and --change, or --parent-rev and --change-rev")


def claim(text: str):
    """``none``, or ``WORKLOAD:METRIC`` as a pair."""
    if text == "none":
        return None
    workload, _, metric = text.partition(":")
    if workload not in WORKLOADS or not metric:
        raise argparse.ArgumentTypeError(f"expected none or WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def main():
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--parent", type=Path, help="the parent's checkout")
    cli.add_argument("--change", type=Path, help="the change's checkout")
    cli.add_argument("--parent-rev", help="instead of --parent: a revision of this repository")
    cli.add_argument("--change-rev", help="instead of --change: a revision of this repository")
    cli.add_argument("--seeds", type=seeds, required=True, help="at least two, as LO-HI")
    cli.add_argument("--seconds", type=float, default=25.0)
    cli.add_argument("--out", type=Path, required=True)
    cli.add_argument("--claim", type=claim, required=True)
    cli.add_argument("--what", required=True, help="what the change does, for the record")
    args = cli.parse_args()
    if len(args.seeds) < 2:
        cli.error("--seeds needs at least two seeds, for the quartiles of each side")
    with checkouts(args) as sides:
        limits = bounds(sides["change"])
        workloads = paired_workloads(sides, args.seeds, args.seconds, limits)
        record = record_head(args.what, sides, args.seeds, args.seconds)
        outputs = same_outputs(sides, args.seeds[-1])
    if args.claim is None:
        record["claim"] = "none: no end-to-end metric gets worse beyond its BENCHMARK.json bound"
        record["claim_check"] = None
    else:
        record["claim"] = (f"{args.claim[0]} {args.claim[1]} improves; no other end-to-end "
                           "metric gets worse beyond its BENCHMARK.json bound")
        record["claim_check"] = claim_check(workloads, *args.claim)
    record["bounds_check"] = bounds_check(workloads, limits)
    record["workloads"] = workloads
    record.update(outputs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("claim_check", "bounds_check")}))


if __name__ == "__main__":
    main()
