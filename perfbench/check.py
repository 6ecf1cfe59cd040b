"""Checks on what the CLI wrote.  Each returns a list of problems; an
empty list means the output passed.

The checks read columns by header name and summary fields by key, so a
later column or key added by the program does not fail them.
"""

from __future__ import annotations

import hashlib

import numpy as np

SWEEP_COLUMNS = ("graph", "algorithm", "mode", "tolerance", "max_labels",
                 "memory_size", "workers", "seed", "iterations", "elapsed_ms", "modularity")

# The summary prints Q with 12 decimals; anything further off was not
# computed from the assignment that was written.
Q_TOLERANCE = 1e-9


def summary(stderr: str) -> dict:
    """``key=value`` fields of the last stderr line that reports modularity."""
    for line in reversed(stderr.splitlines()):
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        if "modularity" in fields:
            return fields
    return {}


def check_detect(stdout: bytes, stderr: str, vertices: int, q_of) -> tuple[list, dict]:
    """Check a ``detect`` TSV against the graph it was run on.

    ``q_of(labels)`` recomputes modularity for the parsed assignment.
    Returns (problems, facts); facts hold the iterations, modularity and
    sha256 of the TSV when the output could be read.
    """
    problems: list[str] = []
    lines = stdout.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    else:
        problems.append("TSV does not end with a newline")
    if len(lines) != vertices:
        return problems + [f"TSV has {len(lines)} rows for {vertices} vertices"], {}
    if any(line.count(b"\t") != 1 for line in lines):
        return problems + ["a TSV row is not 'vertex<TAB>community'"], {}
    try:
        cells = np.array(stdout.split(), dtype=np.int64).reshape(vertices, 2)
    except ValueError:
        return problems + ["non-integer cell in TSV"], {}
    if not np.array_equal(cells[:, 0], np.arange(vertices)):
        problems.append("TSV rows are not vertices 0..n-1 in order")
    labels = cells[:, 1]
    if vertices and (labels.min() < 0 or labels.max() >= vertices):
        return problems + ["a community label lies outside [0, n)"], {}
    fields = summary(stderr)
    try:
        iterations = int(fields["iterations"])
        reported_q = float(fields["modularity"])
        if int(fields["vertices"]) != vertices:
            problems.append(f"summary reports {fields['vertices']} vertices, graph has {vertices}")
    except (KeyError, ValueError):
        return problems + [f"malformed stderr summary {fields!r}"], {}
    q = q_of(labels)
    if abs(q - reported_q) > Q_TOLERANCE:
        problems.append(f"summary Q {reported_q!r} differs from recomputed Q {q!r}")
    if iterations < 1:
        problems.append(f"iterations {iterations} < 1")
    facts = {"iterations": iterations, "modularity": q,
             "sha256": hashlib.sha256(stdout).hexdigest()}
    return problems, facts


def _grid_cell(text: str, kind):
    return None if text == "" else kind(text)


def check_sweep(stdout: bytes, expected: list[dict]) -> tuple[list, list]:
    """Check a ``sweep`` CSV row by row against the grid that was asked for.

    ``expected`` lists, in order, the grid cells each row must carry (any
    subset of graph, algorithm, mode, tolerance, max_labels, memory_size,
    workers, seed).  Returns (problems, rows); ``rows`` holds one dict per
    row that passed, or None where it failed or is missing, so
    ``rows.count(None)`` is the number of failed rows.
    """
    text = stdout.decode("utf-8", errors="replace")
    problems: list[str] = []
    if text and not text.endswith("\n"):
        problems.append("CSV does not end with a newline")
    lines = text.split("\n")[:-1]  # an unterminated last line is not a row
    rows: list = [None] * len(expected)
    header = lines[0].split(",") if lines else []
    missing = [c for c in SWEEP_COLUMNS if c not in header]
    if missing:
        return [f"CSV header lacks {missing}"], rows
    col = {name: header.index(name) for name in SWEEP_COLUMNS}
    body = lines[1:]
    if len(body) != len(expected):
        problems.append(f"CSV has {len(body)} rows, the grid has {len(expected)}")
    for i, (line, want) in enumerate(zip(body, expected)):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"row {i + 1}: {len(cells)} cells for {len(header)} columns")
            continue
        try:
            row = {
                "graph": cells[col["graph"]],
                "algorithm": cells[col["algorithm"]],
                "mode": cells[col["mode"]],
                "tolerance": _grid_cell(cells[col["tolerance"]], float),
                "max_labels": _grid_cell(cells[col["max_labels"]], int),
                "memory_size": _grid_cell(cells[col["memory_size"]], int),
                "workers": int(cells[col["workers"]]),
                "seed": int(cells[col["seed"]]),
                "iterations": int(cells[col["iterations"]]),
                "elapsed_ms": float(cells[col["elapsed_ms"]]),
                "modularity": float(cells[col["modularity"]]),
            }
        except ValueError:
            problems.append(f"row {i + 1}: malformed cell in {line!r}")
            continue
        wrong = [k for k, v in want.items() if row[k] != v]
        if wrong:
            problems.append(f"row {i + 1}: {wrong} differ from the grid in {line!r}")
        elif row["iterations"] < 1 or row["elapsed_ms"] < 0 or not -0.5 <= row["modularity"] <= 1.0:
            problems.append(f"row {i + 1}: iterations, time or Q out of range in {line!r}")
        else:
            rows[i] = row
    return problems, rows


def repeat_mismatches(first: list, later: list) -> list:
    """Indices of single-worker rows whose (iterations, modularity) differ
    between two runs of the same sweep; rows missing from either are skipped."""
    return [
        i for i, (a, b) in enumerate(zip(first, later))
        if a is not None and b is not None and a["workers"] == 1
        and (a["iterations"], a["modularity"]) != (b["iterations"], b["modularity"])
    ]
