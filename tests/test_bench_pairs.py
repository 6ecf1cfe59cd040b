"""The summary, claim check, seed rule and output comparison of
``bench/pairs.py``, on synthetic runs: no checkout, no perfbench process."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

BOUNDS = {"wall_s": (0.25, "lower"), "modularity": (0.25, "higher")}


def runs(parent, change, metric="wall_s"):
    """One run per value, paired in order, the sides alternating first."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)] if i % 2 == 0 else [("change", c), ("parent", p)]
        out += [{"seed": i, "side": side, "metrics": {metric: value, "modularity": 0.5}}
                for side, value in order]
    return out


def test_seeds():
    assert pairs.seeds("5-7") == [5, 6, 7]
    assert pairs.seeds("4") == [4]


def test_summarise_quartiles_pairs_and_bound():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.9, 1.2, 1.0, 1.3, 1.2]
    got = pairs.summarise(runs(parent, change), BOUNDS)
    wall = got["wall_s"]
    # inclusive quartiles of 1.0 .. 1.4
    assert wall["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3}
    assert wall["change"]["median"] == 1.2
    assert wall["change_better_pairs"] == 3  # pairs 0, 2 and 4; pair 3 is equal
    assert wall["equal_pairs"] == 1 and wall["pairs"] == 5
    assert wall["median_change_pct"] == 0.0 and wall["within_bound"]
    assert got["modularity"]["equal_pairs"] == 5 and got["modularity"]["change_better_pairs"] == 0
    # change - parent per pair: -0.1, 0.1, -0.2, 0.0, -0.2
    assert wall["paired_difference"] == {"median": -0.1, "q1": -0.2, "q3": 0.0}
    assert got["modularity"]["paired_difference"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}


def test_paired_differences_cancel_the_spread_between_seeds():
    # each seed's graph moves both sides alike: the sides' quartiles span
    # the seeds, the paired differences only the change's own 0.01
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 0.01 for p in parent]
    wall = pairs.summarise(runs(parent, change), BOUNDS)["wall_s"]
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == 2.0
    assert wall["paired_difference"] == {"median": -0.01, "q1": -0.01, "q3": -0.01}


@pytest.mark.parametrize("metric, better, change, within", [
    ("wall_s", "lower", 1.24, True),  # 24% slower, bound 25%
    ("wall_s", "lower", 1.26, False),
    ("modularity", "higher", 0.76, True),  # 24% lower
    ("modularity", "higher", 0.74, False),
])
def test_within_bound_follows_the_better_direction(metric, better, change, within):
    rows = [{"side": side, "metrics": {metric: value}}
            for _ in range(3) for side, value in (("parent", 1.0), ("change", change))]
    got = pairs.summarise(rows, {metric: (0.25, better)})[metric]
    assert got["within_bound"] is within
    assert got["change_better_pairs"] == (3 if (change < 1.0) == (better == "lower") else 0)


def workloads(parent, change):
    return {"sweep-planted-rak": pairs.summarise(runs(parent, change), BOUNDS)}


def test_claim_met_needs_nine_of_ten_pairs_and_a_gain_above_the_iqr():
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    faster = [p - 0.2 for p in parent]
    met = pairs.claim_check(workloads(parent, faster), "sweep-planted-rak", "wall_s")
    assert met["met"] and met["change_better_pairs"] == 10
    assert met["median_gain_s"] == 0.2 and met["parent_iqr_s"] == 0.09

    # eight pairs won: not met, however large the gain
    eight = faster[:8] + parent[8:]
    assert not pairs.claim_check(workloads(parent, eight), "sweep-planted-rak", "wall_s")["met"]
    # every pair won, but by less than the parent's spread
    slight = [p - 0.05 for p in parent]
    check = pairs.claim_check(workloads(parent, slight), "sweep-planted-rak", "wall_s")
    assert check["change_better_pairs"] == 10 and not check["met"]


def test_bounds_check_lists_the_metrics_beyond_their_bound():
    got = {"sweep-planted-rak": dict(
        pairs.summarise(runs([1.0, 1.0, 1.0], [1.5, 1.5, 1.5]), BOUNDS),
        failed={"parent": 0, "change": 1},
    )}
    assert pairs.bounds_check(got, BOUNDS) == {
        "sweep-planted-rak": {"beyond_bound": ["wall_s"], "failed": {"parent": 0, "change": 1}}
    }


def test_claim_option():
    assert pairs.claim("none") is None
    assert pairs.claim("sweep-planted-slpa:wall_s") == ("sweep-planted-slpa", "wall_s")
    for bad in ("wall_s", "no-such-workload:wall_s", "sweep-planted-slpa:"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.claim(bad)


def test_one_seed_is_refused_before_any_run(tmp_path):
    # the quartiles of each side need two runs at least
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH_x.json"
    parent.mkdir()
    change.mkdir()
    run = subprocess.run([sys.executable, str(PAIRS), "--parent", str(parent), "--change",
                          str(change), "--seeds", "4", "--claim", "none", "--what", "x",
                          "--out", str(out)], capture_output=True, text=True)
    assert run.returncode == 2
    assert "--seeds needs at least two seeds" in run.stderr
    assert not out.exists()
    assert not (parent / ".perfbench").exists() and not (change / ".perfbench").exists()


TSV = "vertex\tcommunity\n0\t0\n1\t0\n"
CSV = "graph,algorithm,tolerance,elapsed_ms,modularity\ng,rak,0.1,{ms},{q}\n"


@pytest.mark.parametrize("change, equal", [
    ({}, (True, True)),
    ({"ms": "99.5"}, (True, True)),  # elapsed_ms alone may differ
    ({"q": "0.41"}, (True, False)),
    ({"tsv": TSV + "2\t1\n"}, (False, True)),
])
def test_same_outputs_compares_the_files_the_paired_runs_left(monkeypatch, change, equal):
    def no_run(*args):
        raise AssertionError("same_outputs started a perfbench run")

    def stdout(side, workload, seed):
        text = {"ms": "12.0", "q": "0.4", "tsv": TSV}
        if side == "change":
            text.update(change)
        return text["tsv"] if workload == pairs.WORKLOADS[0] else CSV.format(**text)

    monkeypatch.setattr(pairs, "perfbench", no_run)
    monkeypatch.setattr(pairs, "cli_stdout", stdout)
    got = pairs.same_outputs({"parent": "parent", "change": "change"}, 34110)
    tsv, csv = got["detect_tsv_identical"], got["sweep_csv_equal_without_elapsed_ms"]
    assert tsv["seed"] == csv["seed"] == 34110
    assert (tsv["equal"], all(csv[w] for w in pairs.WORKLOADS[1:])) == equal
    assert (tsv["sha256"]["parent"] == tsv["sha256"]["change"]) is tsv["equal"]
