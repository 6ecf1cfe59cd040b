"""Undirected weighted graphs in compressed sparse row (CSR) form.

`load_graph` is the one loader.  It returns the arcs as stored in the file
(plus symmetric expansion for MatrixMarket ``symmetric`` storage and
duplicate-arc merging) and picks the format by one rule for paths and
streams: a ``.mtx``/``.mm`` name or ``%%MatrixMarket`` at the very start
of the text means MatrixMarket, anything else is an edge list.
`preprocess` turns any loaded graph into the canonical form the detectors
expect: symmetric, unit arc weights by default, and exactly one weight-1
self-loop per vertex.  `_merge` is the one sort-and-merge step: it sorts
``u * n + v`` arc keys (stably, by `_stable_order`, when weights ride
along), merges each run of equal keys (`from_arcs` sums duplicates,
`preprocess` keeps a pair's larger weight) and builds every CSR graph.
`check_symmetric` merges a graph's reversed arcs the same way and
requires the same arcs with close weights, so it also rejects rows out of
neighbour order and repeated arcs, which no constructor builds.

Files are UTF-8 text; one leading byte-order mark is dropped.  Both
formats read their entry lines through `_entries`, so each rule (field
count, numeric tokens, id range, finite positive weight, whole weights in
an ``integer`` MatrixMarket file) has one message.  A body whose rows are
plain numbers of one width is parsed by numpy in one pass; anything else
(comment lines, mixed widths, a value that fails a check) goes through a
line-by-line loop that accepts the same inputs and names the line of the
first error.  numpy parses a path in C but a stream line by line in
Python, so `load_graph` reads a regular file's header lines from a text
handle and numpy reads its body by name.  Streams, FIFOs, compressed or
URL-like names and files that fail a rule are read whole by `read_text`,
which reports a bad byte anywhere first.  Vertex counts are bounded by
`MAX_VERTICES`.

Weight conventions, fixed once here and relied on everywhere else:

* each undirected edge is stored as two directed arcs; a self-loop is
  stored once;
* a self-loop counts twice toward a vertex degree and twice toward
  ``total_weight`` (so the one-community partition has modularity 0);
* all weights are strictly positive.
"""

from __future__ import annotations

import io
import math
import operator
import os
import warnings
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

Source = Union[str, os.PathLike, IO[str]]

MAX_VERTICES = 3_037_000_499
"""Largest vertex count for which the ``u * n + v`` arc keys fit in int64."""

FORMATS = ("auto", "mtx", "edgelist")
"""The ``fmt`` values `load_graph` takes."""


class GraphParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


@dataclass(frozen=True)
class Graph:
    """Immutable CSR graph.

    ``offsets`` has length ``vertex_count + 1`` and indexes ``neighbors``
    and ``weights`` (both length ``edge_count``).  Adjacency is sorted by
    neighbor id within each row, which is the documented scan order for
    strict tie breaking.  ``total_weight`` is the sum of all stored arc
    weights with self-loops counted twice.  ``symmetric`` is set only by
    `preprocess`, whose output needs no `check_symmetric`.
    """

    vertex_count: int
    edge_count: int
    offsets: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    total_weight: float
    symmetric: bool = False


# Below this many keys packing saves little, and on the level steps'
# keys, which ascend by vertex, a stable argsort (a timsort) is faster.
_PACKED_FROM = 2048


def _stable_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` for non-negative int64 keys, ``order`` the
    stable argsort.

    With b the bit length of ``key.size``, each key is packed above its
    index as ``key << b | index`` when that fits in int64, and one plain
    sort of the packed keys orders them: equal keys stay in index order.
    A plain sort of int64 runs several times faster than an argsort.
    Fewer than `_PACKED_FROM` keys, or larger ones, take
    ``np.argsort(kind="stable")``.
    """
    b = key.size.bit_length()
    if key.size < _PACKED_FROM or int(key.max()) >= 1 << (63 - b):
        order = np.argsort(key, kind="stable")
        return order, key[order]
    packed = key << b
    packed |= np.arange(key.size)
    packed.sort()
    order = packed & ((1 << b) - 1)
    packed >>= b
    return order, packed


def _merge(n: int, key: np.ndarray, w: np.ndarray | None, reduce, symmetric: bool = False) -> Graph:
    """The CSR graph of arcs with keys ``key = u * n + v`` and weights ``w``.

    One sort of ``key`` groups the arcs; each run of equal keys becomes one
    arc, weighted by ``reduce.reduceat`` over the run (``w=None``: weight
    1).  Without weights the keys alone are sorted, in place (callers pass
    a key of their own); with weights the sort is stable (`_stable_order`),
    so `np.add` sums each run in input order.  Unit weights summed by
    `np.add` are sorted alone too, each run weighing its length (k ones sum
    to k exactly).  Keys that never repeat skip the run bookkeeping.
    """
    counted = w is not None and reduce is np.add and bool((w == 1.0).all())
    if w is None or counted:
        key.sort()
        sorted_key = key
    else:
        order, sorted_key = _stable_order(key)
    fresh = np.empty(key.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=fresh[1:])
    if fresh.all():
        arcs = sorted_key
        w = np.ones(key.size) if w is None or counted else w[order]
    else:
        starts = np.flatnonzero(fresh)
        arcs = sorted_key[starts]
        if w is None:
            w = np.ones(starts.size)
        elif counted:
            w = np.diff(starts, append=key.size).astype(np.float64)
        else:
            w = reduce.reduceat(w[order], starts)
    u, v = np.divmod(arcs, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=offsets[1:])
    for a in (offsets, v, w):
        a.setflags(write=False)
    return Graph(vertex_count=n, edge_count=int(v.size), offsets=offsets, neighbors=v, weights=w,
                 total_weight=float(w.sum() + w[u == v].sum()), symmetric=symmetric)


def whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError naming ``what`` unless each
    is a whole number.  An integer array is converted unchecked."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and infinities cast to junk, caught below
        ints = values.astype(np.int64)
    if not np.array_equal(ints, values):
        raise ValueError(f"{what} must be whole numbers")
    return ints


def from_arcs(vertex_count: int, u, v, w) -> Graph:
    """Build a CSR graph from arc arrays, merging duplicate arcs by weight sum.

    Duplicates are summed in input order (`_merge` with `np.add`).
    ``vertex_count`` is an integer in ``[0, MAX_VERTICES]``, every endpoint
    must be a whole number in ``[0, vertex_count)``, ``u``, ``v`` and ``w``
    must have one length and every weight must be finite and positive.
    """
    n = operator.index(vertex_count)
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}")
    u = whole_numbers(u, "arc endpoints")
    v = whole_numbers(v, "arc endpoints")
    w = np.asarray(w, dtype=np.float64)
    if not u.shape == v.shape == w.shape:
        raise ValueError("u, v and w must have the same length")
    if not ((0 < w) & (w < np.inf)).all():
        raise ValueError("arc weights must be finite and positive")
    if not (_in_range(u, 0, n - 1) and _in_range(v, 0, n - 1)):
        raise ValueError(f"arc endpoints must lie in [0, {n})")
    return _merge(n, u * n + v, w, np.add)


def arc_rows(graph: Graph) -> np.ndarray:
    """Source vertex of every stored arc (the CSR row index, repeated)."""
    return np.repeat(
        np.arange(graph.vertex_count, dtype=np.int64),
        np.diff(graph.offsets),
    )


def read_text(source: Source) -> str:
    """The whole input as text, with newlines translated as text-mode reads do
    and one leading byte-order mark (U+FEFF) dropped.

    Bytes that are not UTF-8 raise `GraphParseError` naming the line.
    """
    if hasattr(source, "read"):
        try:
            text = source.read()
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"input is not valid UTF-8 ({exc.reason})") from None
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise GraphParseError(
                f"line {line}: not valid UTF-8 (byte 0x{data[exc.start]:02x})"
            ) from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


_ROW_DTYPES = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
}


def _numeric_rows(stream: IO[str], fields: int, lineno: int = 0):
    """Parse every remaining line of ``stream`` as ``fields`` numbers in one C pass.

    Returns ``(u, v, w)`` with ``w`` all ones for two fields, or None when
    numpy rejects the text: comment lines, rows of another width, tokens
    that are not plain int64 / float64 literals, or no rows at all.  The
    line loop then decides, and names the line of any error.
    ``comments=None`` matters: with ``"#"`` numpy would accept ``1 2 # x``.
    A StringIO is read from its position; a file `load_graph` opened is
    read again by name, past its ``lineno`` header lines, decoded alike.
    """
    source, skip = (stream, 0) if isinstance(stream, io.StringIO) else (stream.name, lineno)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(source, dtype=_ROW_DTYPES[fields], comments=None, ndmin=1,
                              skiprows=skip, encoding="utf-8-sig")
    except (ValueError, OverflowError, Warning):
        return None
    return rows["u"], rows["v"], rows["w"] if fields == 3 else np.ones(rows.size)


def _in_range(a: np.ndarray, lo: int, hi: int) -> bool:
    return bool(a.size == 0 or (lo <= a.min() and a.max() <= hi))


def _entries(
    stream: IO[str], lineno: int, comment: str, widths: tuple, lo: int, hi: tuple,
    count: int | None = None, integral: bool = False,
):
    """The entry lines left in ``stream`` as ``(u, v, w)`` arrays of 0-based arcs.

    An entry is ``u v`` or ``u v w`` (its width in ``widths``; a missing
    weight is 1) with ``lo <= u <= hi[0]``, ``lo <= v <= hi[1]`` and a
    finite positive ``w``, a whole number when ``integral``; ids are
    shifted down by ``lo``.  Blank lines and lines that start with
    ``comment`` are skipped, and ``count``, when given, is the number of
    entries the file declares.  ``lineno`` is the number of lines before
    the stream's position.

    A body of plain numbers whose first line has a width in ``widths`` is
    parsed by numpy in one pass and kept if every value passes the checks.
    Otherwise `_entry_loop` reads it again; it accepts the same inputs and
    names the line of the first error.
    """
    start = stream.tell()
    fields = len(next((line for line in iter(stream.readline, "") if line.strip()), "").split())
    stream.seek(start)
    parsed = _numeric_rows(stream, fields, lineno) if fields in widths else None
    if (
        parsed is not None
        and (count is None or parsed[0].size == count)
        and _in_range(parsed[0], lo, hi[0])
        and _in_range(parsed[1], lo, hi[1])
        and bool(((parsed[2] > 0) & (parsed[2] < np.inf)).all())
        and not (integral and (parsed[2] % 1).any())
    ):
        u, v, w = parsed
    else:
        stream.seek(start)
        u, v, w = _entry_loop(stream, lineno, comment, widths, lo, hi, count, integral)
    u -= lo
    v -= lo
    return u, v, w


def _entry_loop(lines, lineno, comment, widths, lo, hi, count, integral):
    """`_entries` one line at a time, naming the line of the first error."""
    us, vs, ws = [], [], []
    for raw in lines:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        if len(us) == count:
            raise GraphParseError(f"line {lineno}: more entries than the {count} declared")
        toks = line.split()
        if len(toks) not in widths:
            expected = " or ".join(map(str, widths))
            raise GraphParseError(f"line {lineno}: expected {expected} fields, got {line!r}")
        try:
            ids = int(toks[0]), int(toks[1])
            weight = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-numeric token in {line!r}") from None
        for x, top in zip(ids, hi):
            if x < lo:
                raise GraphParseError(f"line {lineno}: vertex index {x} below {lo} in {line!r}")
            if x > top:
                raise GraphParseError(f"line {lineno}: vertex index {x} exceeds {top}")
        if not 0 < weight < math.inf:
            raise GraphParseError(f"line {lineno}: non-positive or non-finite weight {weight}")
        if integral and not weight.is_integer():
            raise GraphParseError(f"line {lineno}: non-integer weight {weight} in an integer file")
        us.append(ids[0])
        vs.append(ids[1])
        ws.append(weight)
    if count is not None and len(us) != count:
        raise GraphParseError(f"line {lineno}: file ended after {len(us)} of {count} entries")
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws)


def _matrix_market(stream: IO[str]) -> Graph:
    header = stream.readline()
    if not header:
        raise GraphParseError("line 1: empty file, expected MatrixMarket header")
    parts = header.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise GraphParseError(f"line 1: malformed MatrixMarket header: {header.strip()!r}")
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise GraphParseError(f"line 1: unsupported MatrixMarket type {obj!r} {fmt!r}")
    if field not in ("pattern", "real", "integer"):
        raise GraphParseError(f"line 1: unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise GraphParseError(f"line 1: unsupported symmetry {symmetry!r}")

    lineno = 1
    rows = cols = count = -1
    for raw in iter(stream.readline, ""):  # a file's tell() fails once iterated
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        dims = line.split()
        if len(dims) != 3:
            raise GraphParseError(f"line {lineno}: expected 'rows cols entries', got {line!r}")
        try:
            rows, cols, count = (int(t) for t in dims)
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer size line {line!r}") from None
        if rows < 0 or cols < 0 or count < 0:
            raise GraphParseError(f"line {lineno}: negative value in size line {line!r}")
        if max(rows, cols) > MAX_VERTICES:
            raise GraphParseError(
                f"line {lineno}: size {max(rows, cols)} exceeds the supported maximum "
                f"{MAX_VERTICES}"
            )
        break
    if rows < 0:
        raise GraphParseError(f"line {lineno}: missing size line")

    width = 2 if field == "pattern" else 3
    us, vs, ws = _entries(
        stream, lineno, "%", (width,), 1, (rows, cols), count, field == "integer"
    )
    if symmetry == "symmetric":
        off = us != vs
        us, vs, ws = (
            np.concatenate([us, vs[off]]),
            np.concatenate([vs, us[off]]),
            np.concatenate([ws, ws[off]]),
        )
    return from_arcs(max(rows, cols), us, vs, ws)


def load_graph(path: Source, fmt: str = "auto") -> Graph:
    """Parse a graph file (path or text stream) into a raw, unpreprocessed graph.

    ``fmt`` is ``"mtx"``, ``"edgelist"`` or ``"auto"``, which picks
    MatrixMarket for a path named ``*.mtx``/``*.mm`` or a text that starts
    with ``%%MatrixMarket`` (in any case), and an edge list otherwise.

    MatrixMarket: header ``%%MatrixMarket matrix coordinate
    (pattern|real|integer) (general|symmetric)``, a ``rows cols entries``
    line, 1-based indices; ``integer`` weights must be whole numbers,
    ``pattern`` entries get weight 1 and ``symmetric`` storage is expanded
    to both arc directions (diagonal entries kept single).  Edge list:
    ``u v [w]`` lines, 0-based, ``#`` comments, weight 1 by default; the
    vertex count is the largest id plus one.  In both, vertex counts are
    at most `MAX_VERTICES`, weights must be finite and positive, and
    duplicate arcs merge by weight sum.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}")
    if _readable_by_name(path):
        try:
            with open(path, encoding="utf-8-sig") as stream:
                return _parse(stream, path, fmt)
        except (GraphParseError, UnicodeDecodeError):
            pass  # the whole-text read names the error, a bad byte anywhere first
    return _parse(io.StringIO(read_text(path)), path, fmt)


def _readable_by_name(source: Source) -> bool:
    """Whether numpy may read ``source`` by its name: a regular file (a
    stream, FIFO or device may not yield its data twice) whose name numpy's
    DataSource neither decompresses (by suffix) nor fetches as a URL."""
    if hasattr(source, "read"):
        return False
    name = str(source)
    return (os.path.isfile(name) and "://" not in name
            and not name.lower().endswith((".gz", ".bz2", ".xz", ".lzma")))


def _parse(stream: IO[str], source: Source, fmt: str) -> Graph:
    """`load_graph` on the text of ``stream``, which is at its start."""
    if fmt == "auto":
        named = not hasattr(source, "read") and str(source).endswith((".mtx", ".mm"))
        fmt = "mtx" if named or stream.read(64).lower().startswith("%%matrixmarket") else "edgelist"
        stream.seek(0)
    if fmt == "mtx":
        return _matrix_market(stream)
    us, vs, ws = _entries(stream, 0, "#", (2, 3), 0, (MAX_VERTICES - 1,) * 2)
    return from_arcs(1 + max(us.max(initial=-1), vs.max(initial=-1)), us, vs, ws)


def preprocess(
    graph: Graph,
    unit_weights: bool = True,
    self_loops: bool = True,
) -> Graph:
    """Canonicalize a loaded graph for detection.

    Off-diagonal arcs are made symmetric (when both directions exist with
    different weights the larger wins, which makes this a no-op on an
    already symmetric graph).  With ``unit_weights`` every weight is forced
    to 1.  With ``self_loops`` existing self-loops are dropped and every
    vertex gets exactly one self-loop of weight 1; otherwise self-loops
    pass through untouched.

    Every off-diagonal arc is emitted in both directions, next to the
    self-loops, and `_merge` groups each arc with its reverse; a group
    keeps its largest weight.  The input's arcs are taken to be distinct,
    as in every graph `from_arcs` builds.
    """
    n = graph.vertex_count
    rows = arc_rows(graph)
    cols = graph.neighbors
    off = rows != cols
    ru, rv = (rows, cols) if off.all() else (rows[off], cols[off])
    loops = np.arange(n, dtype=np.int64) if self_loops else rows[~off]
    # the keys are written into one array: each fresh array of this size costs page faults
    m = ru.size
    key = np.empty(2 * m + loops.size, dtype=np.int64)
    np.multiply(ru, n, out=key[:m])
    key[:m] += rv
    np.multiply(rv, n, out=key[m:2 * m])
    key[m:2 * m] += ru
    np.multiply(loops, n + 1, out=key[2 * m:])
    weights = None
    if not unit_weights:
        rw = graph.weights[off]
        weights = np.concatenate([rw, rw, np.ones(n) if self_loops else graph.weights[~off]])
    return _merge(n, key, weights, np.maximum, symmetric=True)


def degree_weights(graph: Graph, rows: np.ndarray | None = None) -> np.ndarray:
    """Weighted degree of every vertex; self-loops count twice.  ``rows``,
    when given, is `arc_rows` of the graph."""
    n = graph.vertex_count
    if rows is None:
        rows = arc_rows(graph)
    deg = np.bincount(rows, weights=graph.weights, minlength=n)
    diag = np.where(rows == graph.neighbors, graph.weights, 0.0)  # adding 0.0 changes no sum
    deg += np.bincount(rows, weights=diag, minlength=n)
    return deg


def check_symmetric(graph: Graph) -> None:
    """Raise unless the graph with every arc reversed has the same arcs
    and close weights; the detectors run it once per unmarked graph."""
    n = graph.vertex_count
    reverse = _merge(n, graph.neighbors * n + arc_rows(graph), graph.weights, np.maximum)
    if not (np.array_equal(reverse.offsets, graph.offsets)
            and np.array_equal(reverse.neighbors, graph.neighbors)
            and np.allclose(reverse.weights, graph.weights)):
        raise ValueError("graph is not symmetric; run preprocess() before detecting")


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Arc-for-arc equality (used by idempotence and round-trip tests)."""
    return (
        a.vertex_count == b.vertex_count
        and a.edge_count == b.edge_count
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.neighbors, b.neighbors)
        and np.array_equal(a.weights, b.weights)
    )
