"""Command-line front end: detect, sweep, score, info.

``detect`` writes a ``vertex<TAB>community`` TSV (stdout by default) and a
one-line summary on stderr.  ``sweep`` streams a CSV of runs over the
parameter grids, one graph's rows at a time in input order; with several
graphs it runs them in forked worker processes, as many at once as
`labelprop.sweep.sweep_jobs` allows (usable CPUs divided by the threads
a row runs on), and only this process writes.  ``score`` recomputes
modularity for a saved assignment.
``info`` prints vertex/edge counts and average degree per graph.  A file
that cannot be read or parsed ends a command with one ``labelprop: ...``
line and exit 1 (``sweep`` skips such a graph, ``info`` reports it and
goes on), and so does a run whose state is too large to allocate.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from functools import partial

import numpy as np

from .graph import FORMATS, Graph, GraphParseError, load_graph, preprocess, read_text
from .quality import modularity
from .result import LEAST
from .sweep import AXES, CSV_HEADER, MODES, PARAMS, SweepSpec, run_one, run_sweep, sweep_jobs

ALGORITHMS = tuple(PARAMS)

# run_one's keywords: the *Params fields, with mode in place of strict
RUN_OPTIONS = {f.name for p in PARAMS.values() for f in fields(p)} - {"strict"} | {"mode"}


def _add_graph_options(p: argparse.ArgumentParser, **input_spec) -> None:
    p.add_argument("--input", **input_spec)
    p.add_argument("--graph-format", choices=FORMATS, default="auto")
    p.add_argument("--no-self-loops", action="store_true",
                   help="skip the one-self-loop-per-vertex preprocessing step")
    p.add_argument("--keep-weights", action="store_true",
                   help="keep file weights instead of forcing unit weights")


def _load(args, path: str) -> Graph:
    raw = load_graph(path, args.graph_format)
    return preprocess(
        raw,
        unit_weights=not args.keep_weights,
        self_loops=not args.no_self_loops,
    )


def _given(args, names) -> dict:
    """The options named in ``names`` that were given (not None), in parser order."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _checked(convert, ok, expected: str):
    """An argparse type that rejects values outside the accepted range."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text.strip()!r}")
        return value

    return parse


def _grid(item):
    """An argparse type for a comma-separated list of ``item`` values."""

    def parse(text: str) -> tuple:
        return tuple(item(t) for t in text.split(",") if t.strip())

    return parse


def _at_least(name: str):
    """An argparse type for an integer at least ``LEAST[name]``."""
    least = LEAST[name]
    return _checked(int, lambda x: x >= least, f"an integer >= {least}")


_tolerance = _checked(float, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")


def _defaults(field: str) -> str:
    """The field's default in each algorithm that has it, for help texts;
    one value when every algorithm has the same."""
    found = {alg: getattr(params, field) for alg, params in PARAMS.items()
             if hasattr(params, field)}
    values = set(found.values())
    if len(found) == len(PARAMS) and len(values) == 1:
        return f"(default: {values.pop()})"
    return f"(default: {', '.join(f'{alg} {value}' for alg, value in found.items())})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelprop",
        description="Label-propagation community detection (RAK, COPRA, SLPA).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # detect and sweep options default to None, "not given": the library's
    # defaults apply (the *Params fields and SweepSpec)
    p_detect = sub.add_parser("detect", help="run one detection and emit a community TSV")
    _add_graph_options(p_detect, required=True, help="graph file (MatrixMarket or edge list)")
    p_detect.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_detect.add_argument("--tolerance", type=_tolerance,
                          help=f"convergence fraction {_defaults('tolerance')}")
    p_detect.add_argument("--max-labels", type=_at_least("max_labels"),
                          help=f"labels kept per vertex {_defaults('max_labels')}")
    p_detect.add_argument("--memory-size", type=_at_least("memory_size"),
                          help=f"memory capacity {_defaults('memory_size')}")
    p_detect.add_argument("--max-iterations", type=_at_least("max_iterations"),
                          help=f"iteration cap {_defaults('max_iterations')}")
    p_detect.add_argument("--threads", type=_at_least("workers"), dest="workers",
                          metavar="THREADS", help="worker threads when compiled; interpreted "
                          f"runs use one {_defaults('workers')}")
    p_detect.add_argument("--seed", type=int)
    p_detect.add_argument("--output", default="-", help="TSV path, '-' for stdout")
    mode = p_detect.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="mode", action="store_const", const=MODES[0],
                      help="break weight ties by first label in scan order")
    mode.add_argument("--non-strict", dest="mode", action="store_const", const=MODES[1],
                      help="break weight ties uniformly at random (default)")

    p_sweep = sub.add_parser("sweep", help="cross parameter grids and stream a CSV of runs")
    p_sweep.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    _add_graph_options(p_sweep, nargs="*", default=[], help="graph files")
    p_sweep.add_argument("--tolerances", type=_grid(_tolerance), metavar="T1,T2,...")
    p_sweep.add_argument("--max-labels-grid", type=_grid(_at_least("max_labels")),
                         dest="max_labels", metavar="L1,L2,...")
    p_sweep.add_argument("--memory-sizes", type=_grid(_at_least("memory_size")),
                         metavar="M1,M2,...")
    p_sweep.add_argument("--modes", type=_grid(str.strip), metavar="MODE1,MODE2",
                         help="comma-separated: strict, non-strict")
    p_sweep.add_argument("--workers-grid", type=_grid(_at_least("workers")), dest="workers",
                         metavar="W1,W2,...")
    p_sweep.add_argument("--repetitions", type=_at_least("repetitions"))
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--output", default="-", help="CSV path, '-' for stdout")

    p_score = sub.add_parser("score", help="modularity of a saved community TSV")
    _add_graph_options(p_score, required=True, help="graph file (MatrixMarket or edge list)")
    p_score.add_argument("--assignment", required=True, help="vertex<TAB>community TSV")

    p_info = sub.add_parser("info", help="per-graph vertex/edge counts and average degree")
    p_info.add_argument("paths", nargs="+", help="graph files")
    p_info.add_argument("--graph-format", choices=FORMATS, default="auto")

    return parser


def _usage_error(args, message) -> int:
    """Exit status 2, after one ``labelprop <command>: error: <message>`` line."""
    print(f"labelprop {args.command}: error: {message}", file=sys.stderr)
    return 2


def _output(path: str):
    """The stream to write to, as a context: stdout, left open, for ``-``,
    else the file at ``path``, closed on leaving."""
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def cmd_detect(args) -> int:
    options = _given(args, RUN_OPTIONS)
    for name, value in options.items():
        if not hasattr(PARAMS[args.algorithm], "strict" if name == "mode" else name):
            flag = value if name == "mode" else name.replace("_", "-")
            return _usage_error(args, f"--{flag} does not apply to --algorithm {args.algorithm}")
    graph = _load(args, args.input)
    result = run_one(args.algorithm, graph, **options)
    with _output(args.output) as out:
        n = graph.vertex_count
        pairs = np.empty(2 * n, dtype=np.int64)  # vertex, community, vertex, ...
        pairs[0::2] = np.arange(n)
        pairs[1::2] = result.assignment
        out.write(("%d\t%d\n" * n) % tuple(pairs.tolist()))
    print(
        f"vertices={graph.vertex_count} iterations={result.iterations} "
        f"elapsed_ms={result.elapsed * 1000.0:.3f} modularity={result.modularity:.12f}",
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args) -> int:
    given = _given(args, {f.name for f in fields(SweepSpec)})
    applies = {"algorithm", "workers", "repetitions", "seed", *(g for g, _ in AXES[args.algorithm])}
    for name in given:
        if name not in applies:
            flag = "max-labels-grid" if name == "max_labels" else name.replace("_", "-")
            return _usage_error(args, f"--{flag} does not apply to --algorithm {args.algorithm}")
    try:
        spec = SweepSpec(**given)
    except ValueError as exc:
        return _usage_error(args, exc)
    job = partial(_sweep_graph, args, spec)
    with _output(args.output) as out:
        print(CSV_HEADER, file=out, flush=True)
        with _mapped(job, args.input, sweep_jobs(spec, len(args.input))) as results:
            for rows, skipped in results:
                out.write(rows)
                out.flush()
                sys.stderr.write(skipped)
    return 0


def _sweep_graph(args, spec: SweepSpec, path: str) -> tuple[str, str]:
    """One graph of a sweep: (its CSV rows, its ``skipping`` line), either may be empty."""
    try:
        graph = _load(args, path)
    except (OSError, GraphParseError) as exc:
        return "", f"labelprop: skipping {path}: {exc}\n"
    # through run_sweep, the sweep layer that perfbench's traces wrap
    return "".join(record.csv_row() + "\n" for record in run_sweep(spec, [(path, graph)])), ""


@contextmanager
def _mapped(job, items, jobs: int):
    """``map(job, items)`` in order, on a pool of ``jobs`` forked processes
    when ``jobs`` > 1 and the platform can fork, else in this process.

    Leaving the block joins the pool's processes: closed after the last
    result, terminated on any exception."""
    if jobs > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # Forked workers start with this process's imports and run every
            # kernel; the CLI process runs none and starts no thread before
            # the fork.  A worker flushes the standard streams it inherited
            # when it exits, so nothing may be left in their buffers.
            sys.stdout.flush()
            sys.stderr.flush()
            with multiprocessing.get_context("fork").Pool(jobs) as pool:
                yield pool.imap(job, items, chunksize=1)
                pool.close()
                pool.join()
            return
    yield map(job, items)


def cmd_score(args) -> int:
    graph = _load(args, args.input)
    n = graph.vertex_count
    communities = np.zeros(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    for lineno, raw in enumerate(read_text(args.assignment).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphParseError(f"line {lineno}: expected 'vertex<TAB>community'")
        try:
            v, c = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer token in assignment file") from None
        if not 0 <= v < n:
            raise GraphParseError(f"line {lineno}: vertex {v} out of range [0, {n})")
        if assigned[v]:
            raise GraphParseError(f"line {lineno}: duplicate assignment for vertex {v}")
        if not -2**63 <= c < 2**63:
            raise GraphParseError(f"line {lineno}: community id {c} outside int64")
        communities[v] = c
        assigned[v] = True
    missing = np.flatnonzero(~assigned)
    if missing.size:
        raise GraphParseError(f"missing assignment for vertex {int(missing[0])}")
    # external community ids may be sparse; compact them for scoring
    _, compact = np.unique(communities, return_inverse=True)
    q = modularity(graph, compact.astype(np.int64))
    print(f"{q:.6f}")
    print(f"modularity={q:.12f}", file=sys.stderr)
    return 0


def cmd_info(args) -> int:
    status = 0
    print("graph\tvertices\tedges\tavg_degree")
    for p in args.paths:
        try:
            raw = load_graph(p, args.graph_format)
        except (OSError, GraphParseError) as exc:
            print(f"labelprop: {p}: {exc}", file=sys.stderr)
            status = 1
            continue
        g = preprocess(raw, unit_weights=True, self_loops=False)
        davg = g.edge_count / g.vertex_count if g.vertex_count else 0.0
        print(f"{p}\t{g.vertex_count}\t{g.edge_count}\t{davg:.2f}")
    return status


COMMANDS = {"detect": cmd_detect, "sweep": cmd_sweep, "score": cmd_score, "info": cmd_info}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, GraphParseError, MemoryError) as exc:
        print(f"labelprop: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
