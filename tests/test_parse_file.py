"""A regular file's numpy-by-name parse against the whole-text parse, and
`from_arcs`'s unit-weight merge against the stable-order merge.

`load_graph` reads a regular file's header lines from a text handle and
lets numpy read the body by the file's name; every other source, and any
file that breaks a rule, is read whole by `read_text` into a StringIO.
The reference here is the whole-text parse of the same bytes (`whole_text`):
both must build the same graph or raise the same `GraphParseError` message.
"""

import bz2
import gzip
import io
import lzma
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import labelprop as lp  # noqa: E402
from labelprop import graph as graph_module  # noqa: E402
from labelprop.graph import GraphParseError, graphs_equal, read_text  # noqa: E402

MTX = "%%MatrixMarket matrix coordinate {} general\n"


def outcome(load, source):
    """``("graph", graph)`` or ``("error", message)`` of ``load(source)``."""
    try:
        return "graph", load(source)
    except GraphParseError as exc:
        return "error", str(exc)


def whole_text(path: Path) -> lp.Graph:
    """``path`` parsed from its whole text: `read_text` raises a path's
    message for a byte that is not UTF-8, and otherwise the bytes are parsed
    as a text stream (universal newlines, one byte-order mark dropped)."""
    read_text(path)
    stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
    return lp.load_graph(stream, "mtx" if path.suffix == ".mtx" else "auto")


def assert_same_outcome(path: Path) -> None:
    """``load_graph(path)`` builds what `whole_text` builds, or raises the
    same message."""
    got = outcome(lp.load_graph, path)
    want = outcome(whole_text, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert graphs_equal(got[1], want[1])
        assert got[1].total_weight == want[1].total_weight


CASES = {
    # line endings and encoding
    "crlf.txt": b"0 1\r\n1 2\r\n2 0\r\n",
    "lone-cr.txt": b"0 1\r1 2\r2 0\r",
    "crlf.mtx": MTX.format("real").replace("\n", "\r\n").encode()
    + b"3 3 2\r\n1 2 0.5\r\n2 3 2\r\n",
    "lone-cr.mtx": MTX.format("pattern").replace("\n", "\r").encode() + b"3 3 2\r1 2\r2 3\r",
    "bom.txt": "\ufeff0 1\n1 2\n".encode(),
    "bom.mtx": ("\ufeff" + MTX.format("pattern") + "3 3 1\n1 2\n").encode(),
    "two-boms.txt": "\ufeff\ufeff0 1\n".encode(),
    "no-final-newline.txt": b"0 1\n1 2",
    "no-final-newline.mtx": (MTX.format("integer") + "3 3 2\n1 2 4\n2 3 5").encode(),
    "empty.txt": b"",
    "empty.mtx": b"",
    # layout
    "tabs-and-spaces.txt": b"0\t1\n1   2 \t 3.5\n  2\t\t0\n",
    "blank-lines.txt": b"\n\n0 1\n\n \n\t\n1 2\n\n",
    "trailing-space.txt": b"0 1   \n1 2\t\n",
    "blank-lines.mtx": (MTX.format("pattern") + "\n3 3 2\n\n\n1 2\n\n2 3\n\n").encode(),
    "form-feed.txt": b"0 1\x0c\n1\x0b2\n",
    # comments
    "hash-comments.txt": b"# a graph\n0 1\n# between\n1 2\n",
    "late-comment.txt": b"0 1\n1 2\n" * 50 + b"# last\n",
    "comment-after-size.mtx": (MTX.format("real")
                               + "% c\n3 3 2\n% between\n1 2 1.5\n% x\n2 3 2\n").encode(),
    "inline-hash.txt": b"0 1 # note\n",
    # fields
    "mixed-widths.txt": b"0 1\n1 2 2.5\n2 0\n",
    "weight-1e3.txt": b"0 1 1e3\n1 2 1E-3\n2 0 .5\n",
    "plus-id.txt": b"+5 1\n0 +1\n",
    "underscore-id.txt": b"1_000 1\n",
    "non-utf8.txt": b"0 1\n1 2\n\xff\n",
    "non-utf8-late.txt": b"0 1 # x\n" + b"1 2\n" * 3000 + b"\xc3\x28\n",
    "non-utf8.mtx": (MTX.format("pattern") + "3 3 1\n").encode() + b"1 \xfe2\n",
    "non-whole-integer.mtx": (MTX.format("integer") + "3 3 2\n1 2 3\n2 3 1.5\n").encode(),
    "wrong-width.mtx": (MTX.format("pattern") + "3 3 1\n1 2 3\n").encode(),
    "zero-weight.txt": b"0 1 0\n",
    "nan-weight.txt": b"0 1 nan\n",
    "id-too-large.mtx": (MTX.format("pattern") + "3 3 1\n1 4\n").encode(),
    "huge-id.txt": b"0 99999999999999999999\n",
    # structure
    "header-only.mtx": MTX.format("pattern").encode(),
    "size-line-only.mtx": (MTX.format("pattern") + "3 3 0\n").encode(),
    "too-few-entries.mtx": (MTX.format("pattern") + "3 3 3\n1 2\n").encode(),
    "too-many-entries.mtx": (MTX.format("pattern") + "3 3 1\n1 2\n2 3\n").encode(),
    "bad-header.mtx": b"%%MatrixMarket matrix array real general\n3 3\n",
    "bad-header-then-bad-byte.mtx": b"%%MatrixMarket tensor\n" + b"% pad\n" * 3000 + b"\xff\n",
    "duplicates.txt": b"0 1 1.5\n0 1 2\n1 0\n0 1 0.25\n",
    "duplicate-ones.txt": b"0 1\n0 1\n1 0\n0 1\n",
    "duplicates.mtx": (MTX.format("pattern") + "2 2 3\n1 2\n1 2\n2 1\n").encode(),
    "symmetric.mtx": MTX.replace("general", "symmetric").format("real").encode()
    + b"3 3 3\n2 1 2\n3 3 1\n3 1 4\n",
    "sniffed-header.txt": (MTX.format("pattern").upper() + "2 2 1\n1 2\n").encode(),
}


@pytest.mark.parametrize("name", CASES)
def test_file_parses_as_its_whole_text(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(CASES[name])
    assert_same_outcome(path)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
TOKENS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["+1", "-1", "1_0", "0.5", "2.0", "1e3", "nan", "x", "#", "%"]),
)
SPACES = st.sampled_from([" ", "  ", "\t", " \t"])


@st.composite
def bodies(draw):
    """Lines of a few tokens each, with blank and comment lines now and then."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["entry"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "%"])) + " note")
        else:
            toks = draw(st.lists(TOKENS, min_size=1, max_size=4))
            lines.append(draw(SPACES).join(toks) + draw(st.sampled_from(["", " "])))
    return lines


@settings(max_examples=150, deadline=None)
@given(
    body=bodies(),
    end=LINE_ENDS,
    final=st.booleans(),
    bom=st.booleans(),
    mtx=st.sampled_from([None, "pattern", "real", "integer"]),
    size=st.sampled_from(["9 9 {}", "3 3 {}", "9 9 0"]),
)
def test_random_bodies_parse_as_their_whole_text(body, end, final, bom, mtx, size):
    lines = list(body)
    if mtx is not None:
        entries = sum(1 for line in lines if line.strip() and line[0] not in "#%")
        lines = [MTX.format(mtx).strip(), size.format(entries)] + lines
    text = ("\ufeff" if bom else "") + end.join(lines) + (end if final and lines else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("g.mtx" if mtx else "g.txt")
        path.write_bytes(text.encode())
        assert_same_outcome(path)


EDGES = b"0 1\n1 2\n2 0\n"


@pytest.mark.parametrize("suffix, compress", [
    (".txt.gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
])
def test_compressed_names_are_read_as_text(tmp_path, suffix, compress):
    """numpy would decompress these names; `load_graph` reads their bytes,
    so a compressed file fails on its first byte that is not UTF-8."""
    path = tmp_path / f"e{suffix}"
    path.write_bytes(compress(EDGES))
    assert np.loadtxt(path, dtype=np.int64).tolist() == [[0, 1], [1, 2], [2, 0]]
    with pytest.raises(GraphParseError) as err:
        read_text(path)
    with pytest.raises(GraphParseError) as got:
        lp.load_graph(path)
    assert str(got.value) == str(err.value)
    assert "not valid UTF-8" in str(got.value)
    if suffix == ".txt.gz":
        assert str(got.value) == "line 1: not valid UTF-8 (byte 0x8b)"


def test_plain_text_under_a_compressed_name(tmp_path):
    path = tmp_path / "e.txt.gz"
    path.write_bytes(EDGES)
    assert graphs_equal(lp.load_graph(path), lp.load_graph(io.StringIO(EDGES.decode())))


def test_url_like_name_is_not_fetched(tmp_path, monkeypatch):
    """A name with a scheme and a host is a URL to numpy; here it is a path."""
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "e.txt").write_bytes(EDGES)
    monkeypatch.chdir(tmp_path)

    def fetch(*args, **kwargs):
        raise AssertionError("numpy asked to open a URL-like name")

    monkeypatch.setattr(np.lib._datasource, "open", fetch)
    assert graphs_equal(lp.load_graph("http://host/e.txt"),
                        lp.load_graph(io.StringIO(EDGES.decode())))


@pytest.mark.parametrize("name, text", [
    ("e.txt", "0 1\n1 2\n2 0\n" * 3),
    ("w.txt", "0 1 1.5\r\n1 2 1\r\n2 0 2.5\r\n"),
    ("bom.txt", "\ufeff0 1\n1 2\n"),
    ("e.mtx", MTX.format("real") + "% note\n3 3 2\n1 2 1\n2 3 0.5\n"),
    ("bom.mtx", "\ufeff" + MTX.format("pattern") + "3 3 2\n1 2\n2 3\n"),
])
def test_regular_numeric_file_takes_numpy_alone(tmp_path, monkeypatch, name, text):
    """Neither the whole-text read nor the line loop runs on a clean file."""
    path = tmp_path / name
    path.write_bytes(text.encode())
    want = lp.load_graph(io.StringIO(text), "auto" if name.endswith(".txt") else "mtx")

    def fail(*args):
        raise AssertionError("a clean regular file left the numpy parse")

    monkeypatch.setattr(graph_module, "read_text", fail)
    monkeypatch.setattr(graph_module, "_entry_loop", fail)
    assert graphs_equal(lp.load_graph(path), want)


LOAD_ONCE = """
import sys
import labelprop as lp
g = lp.load_graph(sys.argv[1], sys.argv[2])
print(g.vertex_count, g.edge_count, g.total_weight)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fmt, text", [
    ("auto", "0 1\n1 2\n2 0\n"),
    ("mtx", MTX.format("pattern") + "3 3 3\n1 2\n2 3\n3 1\n"),
])
def test_fifo_is_read_once(tmp_path, fmt, text):
    """A FIFO yields its data once: a second open would wait for a writer
    that never comes, so the load runs in a child process with a timeout."""
    fifo = tmp_path / "g.pipe"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "w") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    src = str(Path(lp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        run = subprocess.run([sys.executable, "-c", LOAD_ONCE, str(fifo), fmt], env=env,
                             capture_output=True, text=True, timeout=60)
    finally:
        if writer.is_alive():  # the child never opened the FIFO: release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["3", "3", "3.0"]


NOT_ADD = types.SimpleNamespace(reduceat=np.add.reduceat)
"""`np.add` under another name: `_merge` takes its stable-order route with it."""


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    size=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 50),
    unit=st.booleans(),
    repeats=st.booleans(),
)
def test_unit_weight_merge_matches_the_stable_order_sum(n, size, seed, distinct, unit, repeats):
    rng = np.random.default_rng(seed)
    if repeats:  # few distinct keys, so most repeat
        key = rng.choice(rng.integers(0, n * n, distinct), size)
    else:
        key = rng.permutation(n * n)[:size]
    w = np.ones(key.size) if unit else rng.choice([1.0, 0.1, 2.5], key.size)
    got = graph_module._merge(n, key.copy(), w, np.add)  # _merge may sort its key in place
    want = graph_module._merge(n, key.copy(), w, NOT_ADD)
    for name in ("offsets", "neighbors", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got.edge_count == want.edge_count
    assert got.total_weight == want.total_weight
