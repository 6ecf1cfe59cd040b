"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  Timed criteria exclude one-time kernel compilation: the
``warm_kernels`` fixture compiles everything first.
"""

import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import labelprop as lp
from labelprop.prng import next_output, xs32_next
from labelprop.rak import _pick_from_tally
from conftest import copra_row_bounds, partition_matches, requires_jit
from helpers import brute_modularity, dense_tally, path, slpa_run, star, stream_row


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def standard_graphs():
    return [
        ("cliques-8x6", lp.disjoint_cliques(8, 6)),
        ("ring-16x6", lp.ring_of_cliques(16, 6)),
        ("gnp-400", lp.gnp(400, 0.02, seed=2)),
        ("gnp-1000", lp.gnp(1000, 0.01, seed=3)),
        ("star-50", star(50)),
        ("path-100", path(100)),
    ]


def test_c01_modularity_matches_brute_force(warm_kernels):
    rng = np.random.default_rng(1)
    cases = []
    for i in range(200):
        n = int(rng.integers(2, 65))
        p = (0.05, 0.2, 0.5)[i % 3]
        cases.append((lp.gnp(n, p, seed=int(rng.integers(1, 1 << 31))),
                      rng.integers(0, n, size=n)))
    start = time.perf_counter()
    worst = max(
        abs(lp.modularity(g, a) - brute_modularity(g, a)) for g, a in cases
    )
    elapsed = time.perf_counter() - start
    report(1, "modularity oracle", worst <= 1e-9 and elapsed < 10.0,
           f"worst diff {worst:.2e}, {elapsed:.1f}s")


def test_c02_one_community_partition_scores_zero():
    graphs = standard_graphs()
    graphs.append((
        "weighted",
        lp.preprocess(
            lp.from_arcs(5, [0, 1, 2, 3], [1, 2, 3, 4], [2.0, 3.0, 4.0, 5.0]),
            unit_weights=False,
        ),
    ))
    graphs.append((
        "no-loops",
        lp.preprocess(lp.from_arcs(4, [0, 1, 2], [1, 2, 3], np.ones(3)), self_loops=False),
    ))
    worst = max(
        abs(lp.modularity(g, np.zeros(g.vertex_count, dtype=np.int64)))
        for _, g in graphs
    )
    report(2, "trivial partition identity", worst <= 1e-12, f"worst |Q| {worst:.2e}")


def test_c03_clique_recovery(warm_kernels, eight_cliques):
    g = eight_cliques
    configs = [
        ("rak-strict", lambda s: lp.rak_detect(g, lp.RakParams(strict=True, seed=s))),
        ("rak-non-strict", lambda s: lp.rak_detect(g, lp.RakParams(strict=False, seed=s))),
        ("copra-ml1", lambda s: lp.copra_detect(g, lp.CopraParams(max_labels=1, seed=s))),
        ("copra-ml8", lambda s: lp.copra_detect(g, lp.CopraParams(max_labels=8, seed=s))),
        # tolerance 0.001 lets SLPA use (nearly) all memory_size-1 speaking
        # rounds, its most favorable legitimate setting here
        ("slpa-ms20", lambda s: lp.slpa_detect(
            g, lp.SlpaParams(memory_size=20, tolerance=0.001, seed=s))),
    ]
    start = time.perf_counter()
    scores = {}
    for name, run in configs:
        scores[name] = sum(
            partition_matches(run(seed).assignment, 8, 6) for seed in range(1, 21)
        )
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={v}/20" for k, v in scores.items()) + f", {elapsed:.1f}s"
    ok = all(v >= 19 for v in scores.values()) and elapsed < 30.0
    report(3, "clique recovery", ok, detail)


def test_c04_strict_sequential_determinism(warm_kernels):
    n = 10_000
    g = lp.gnp(n, 2 * 5 * n / (n * (n - 1)), seed=11)  # average degree ~10
    a1 = lp.rak_detect(g, lp.RakParams(strict=True, seed=3)).assignment
    a2 = lp.rak_detect(g, lp.RakParams(strict=True, seed=3)).assignment
    s1 = lp.slpa_detect(g, lp.SlpaParams(memory_size=12, strict=True, seed=3)).assignment
    s2 = lp.slpa_detect(g, lp.SlpaParams(memory_size=12, strict=True, seed=3)).assignment
    ok = a1.tobytes() == a2.tobytes() and s1.tobytes() == s2.tobytes()
    report(4, "strict determinism", ok)


def test_c05_tolerance_monotonicity(warm_kernels):
    ok = True
    details = []
    for name, g in standard_graphs():
        loose = lp.rak_detect(g, lp.RakParams(tolerance=0.1, strict=True, seed=5))
        tight = lp.rak_detect(g, lp.RakParams(tolerance=0.0001, strict=True, seed=5))
        replay = lp.rak_detect(g, lp.RakParams(
            tolerance=0.0001, strict=True, seed=5, max_iterations=loose.iterations))
        good = tight.iterations >= loose.iterations and np.array_equal(
            loose.assignment, replay.assignment)
        ok &= good
        details.append(f"{name}:{loose.iterations}<={tight.iterations}")
    report(5, "tolerance monotonicity", ok, " ".join(details))


def test_c06_non_strict_tie_fairness():
    row, cursors = stream_row(2024)
    tie = dense_tally([3, 7], [2.0, 2.0])
    wins = sum(
        _pick_from_tally(*tie, False, row, cursors, 0) == 3 for _ in range(10_000)
    )
    freq = wins / 10_000
    report(6, "tie fairness", abs(freq - 0.5) <= 0.02, f"freq {freq:.4f}")


def test_c07_xorshift_bit_exactness_and_period():
    first = next_output(*stream_row(1), 0)
    states = np.empty(1_000_000, dtype=np.int64)
    x = 1
    for i in range(states.size):
        x = xs32_next(x)
        states[i] = x
    ok = (
        first == 270369
        and (states != 0).all()
        and np.unique(states).size == states.size
    )
    report(7, "xorshift32 exactness", ok, f"next(1)={first}")


def test_c08_copra_belonging_invariants(warm_kernels):
    g = lp.gnp(1000, 0.01, seed=6)
    ok = True
    details = []
    for max_labels in (1, 8):
        err, smallest, largest, sizes = copra_row_bounds(
            g, lp.CopraParams(max_labels=max_labels, seed=4)
        )
        good = err <= 1e-9 and smallest >= 1 and largest <= max_labels
        if max_labels == 1:
            good &= largest == 1 and (sizes == 1).all()
        ok &= good
        details.append(f"ml{max_labels}: err={err:.1e} size=[{smallest},{largest}]")
    report(8, "copra invariants", ok, "; ".join(details))


def test_c09_slpa_memory_law(warm_kernels, two_triangles):
    ok = True
    for ms in (2, 5, 20):
        _, iterations, (_, filled) = slpa_run(
            two_triangles, lp.SlpaParams(memory_size=ms, tolerance=0.001, seed=1)
        )
        ok &= set((filled - 1).tolist()) == {iterations}
        ok &= iterations <= ms - 1
        if ms == 2:
            ok &= iterations == 1
    report(9, "slpa memory law", ok)


@requires_jit
def test_c10_parallel_parity(warm_kernels):
    n = 200_000
    g = lp.gnp(n, 2 * 1.05e6 / (n * (n - 1)), seed=42)
    assert (g.edge_count - n) // 2 >= 1_000_000
    runs = [
        ("rak", lambda w: lp.rak_detect(g, lp.RakParams(strict=True, seed=1, workers=w))),
        ("copra", lambda w: lp.copra_detect(
            g, lp.CopraParams(seed=1, workers=w, max_iterations=20))),
        ("slpa", lambda w: lp.slpa_detect(
            g, lp.SlpaParams(memory_size=10, seed=1, workers=w))),
    ]
    ok = True
    details = []
    for name, run in runs:
        q_seq = run(1).modularity
        worst = max(abs(run(w).modularity - q_seq) for w in (2, 4, 8))
        ok &= worst <= 0.05
        details.append(f"{name}: dQ={worst:.4f}")
    report(10, "parallel parity", ok, "; ".join(details))


@requires_jit
@pytest.mark.skipif((os.cpu_count() or 1) < 8, reason="needs >= 8 hardware threads")
def test_c11_scaled_speedup(warm_kernels):
    n = 1_000_000
    g = lp.gnp(n, 2 * 5.0e6 / (n * (n - 1)), seed=17)
    assert (g.edge_count - n) // 2 >= 5_000_000

    def timed(workers):
        times = []
        for _ in range(5):
            times.append(lp.rak_detect(
                g, lp.RakParams(strict=True, seed=1, workers=workers)).elapsed)
        return statistics.median(times)

    lp.rak_detect(g, lp.RakParams(strict=True, seed=1, workers=8))  # warm shape
    t_seq = timed(1)
    t_par = timed(8)
    speedup = t_seq / t_par
    report(11, "scaled speedup", speedup >= 2.0, f"{speedup:.2f}x")


def test_c12_ring_of_cliques_non_degeneracy(warm_kernels, clique_ring):
    g = clique_ring
    half = g.vertex_count / 2
    configs = [
        ("rak-strict", lambda s: lp.rak_detect(g, lp.RakParams(strict=True, seed=s))),
        ("rak-non-strict", lambda s: lp.rak_detect(g, lp.RakParams(strict=False, seed=s))),
        ("copra-ml1", lambda s: lp.copra_detect(g, lp.CopraParams(max_labels=1, seed=s))),
        ("copra-ml8", lambda s: lp.copra_detect(g, lp.CopraParams(max_labels=8, seed=s))),
        ("slpa-strict", lambda s: lp.slpa_detect(
            g, lp.SlpaParams(memory_size=20, strict=True, seed=s))),
        ("slpa-non-strict", lambda s: lp.slpa_detect(
            g, lp.SlpaParams(memory_size=20, strict=False, seed=s))),
    ]
    ok = True
    details = []
    for name, run in configs:
        clean = sum(
            np.bincount(run(seed).assignment).max() <= half for seed in range(1, 21)
        )
        ok &= clean >= 18
        details.append(f"{name}={clean}/20")
    report(12, "ring non-degeneracy", ok, ", ".join(details))


def test_c13_cli_round_trip(tmp_path):
    graph_file = tmp_path / "g.edges"
    g = lp.gnp(300, 0.03, seed=23)
    rows = np.repeat(np.arange(300), np.diff(g.offsets))
    mask = rows < g.neighbors
    lines = [f"{u} {v}" for u, v in zip(rows[mask], g.neighbors[mask])]
    graph_file.write_text("\n".join(lines) + "\n")

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "labelprop", *args], capture_output=True, text=True
        )

    out = tmp_path / "c.tsv"
    detect = cli("detect", "--algorithm", "rak", "--input", str(graph_file),
                 "--strict", "--seed", "1", "--output", str(out))
    reported = float(re.search(r"modularity=([-\d.]+)", detect.stderr).group(1))
    score = cli("score", "--input", str(graph_file), "--assignment", str(out))
    rescored = float(re.search(r"modularity=([-\d.]+)", score.stderr).group(1))

    sweep = cli("sweep", "--algorithm", "rak", "--input", str(graph_file),
                "--tolerances", "0.1,0.05", "--modes", "strict,non-strict",
                "--workers-grid", "1,2", "--repetitions", "2")
    rows_emitted = len(sweep.stdout.strip().splitlines()) - 1
    expected = 2 * 2 * 2 * 2
    ok = (
        detect.returncode == 0
        and score.returncode == 0
        and abs(reported - rescored) <= 1e-9
        and rows_emitted == expected
    )
    report(13, "cli round trip", ok,
           f"dQ={abs(reported - rescored):.1e}, rows {rows_emitted}/{expected}")
