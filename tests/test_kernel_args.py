"""The kernels give the same results whether fed numpy arrays or lists.

Where numba is missing the kernel launch hands the interpreted kernels
Python lists (``kernel_args``); compiled kernels always receive numpy
arrays.
The golden hashes pin the full detector state on two graphs, and the
equivalence test runs the same kernels on arrays, which checks the
flat-row index arithmetic, and the loop that refills stream rows under
numba, without needing numba.
"""

import hashlib
import importlib
import pkgutil
from unittest import mock

import numpy as np
import pytest

import labelprop as lp
from labelprop import prng, slpa
from labelprop._backend import kernel_args
from helpers import copra_run, slpa_run


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def weighted_graph():
    rng = np.random.default_rng(5)
    n, m = 120, 600
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    w = rng.integers(1, 5, m).astype(np.float64)
    return lp.preprocess(lp.from_arcs(n, src, dst, w), unit_weights=False)


GRAPHS = {
    "ring": lambda: lp.ring_of_cliques(16, 6),
    "weighted": weighted_graph,
    # COPRA rows here hold several labels, so a sort or scan that strays
    # past its row's start changes the state
    "gnp": lambda: lp.gnp(400, 0.02, seed=3),
}


def full_state(algorithm, graph, **kw):
    """(iterations, digest of every output array) of one seed-3 run."""
    if algorithm == "rak":
        r = lp.rak_detect(graph, lp.RakParams(strict=True, seed=3, **kw))
        return r.iterations, digest(r.assignment)
    if algorithm == "slpa":
        labels, it, (slots, filled) = slpa_run(
            graph, lp.SlpaParams(memory_size=10, strict=True, seed=3, **kw)
        )
        return it, digest(labels, slots, filled)
    best, it, (labs, bels, sizes) = copra_run(graph, lp.CopraParams(seed=3, **kw))
    return it, digest(best, labs, bels, sizes)


# (iterations, sha256) captured before the kernels took flat rows and lists.
GOLDEN = {
    ("ring", "rak", 1): (2, "1d440381349075f5861e914ec5c068cd551c39c7ade9ec2dc0a811b11d32dff4"),
    ("ring", "rak", 2): (2, "1d440381349075f5861e914ec5c068cd551c39c7ade9ec2dc0a811b11d32dff4"),
    ("ring", "slpa", 1): (9, "ad880f67c9dd651e94d3732a0c901a3cfa9717bb64516bec1363c3129ae2db94"),
    ("ring", "slpa", 2): (9, "ad880f67c9dd651e94d3732a0c901a3cfa9717bb64516bec1363c3129ae2db94"),
    ("ring", "copra-ml1", 1): (3, "35d2e2e01983f03e209034474dd575347e683337ca81cd0d27ba26b26a0d9df4"),
    ("ring", "copra-ml8", 1): (3, "3da72581efbf7ccd96673d9e2c7bd93ca1f2d29d17d162d19045e76968da9552"),
    ("weighted", "rak", 1): (4, "6882d842f60d85e6a7771bb9152eb5401c560690dcfb5cd4e8cd9381a787cbe4"),
    ("weighted", "rak", 2): (4, "6882d842f60d85e6a7771bb9152eb5401c560690dcfb5cd4e8cd9381a787cbe4"),
    ("weighted", "slpa", 1): (9, "300b2863bfd782238cdec01b84b38f022fa487751a8662e11484e2287430920e"),
    ("weighted", "slpa", 2): (9, "300b2863bfd782238cdec01b84b38f022fa487751a8662e11484e2287430920e"),
    ("weighted", "copra-ml1", 1): (5, "56e607f5f201f2a040d46b65ad2f979ab56c4c3f03887f6e9c52502ac977d06b"),
    ("weighted", "copra-ml8", 1): (5, "d0cf6619e42f20d7b317dd63161ff8b8e99906222260ed05b8aba201b92d2560"),
    ("gnp", "copra-ml8", 1): (8, "c42889e4f886edae497c294b93970f8d9b5b895c70b88fe5f7dda68e851762d4"),
    # one kernel serves every worker count, and the interpreter runs it on
    # one thread, so workers 2 pins the workers-1 state, dead row entries
    # past ``sizes`` included
    ("gnp", "copra-ml8", 2): (8, "c42889e4f886edae497c294b93970f8d9b5b895c70b88fe5f7dda68e851762d4"),
}


def _golden_case(key):
    marks = []
    if key[2] > 1:
        # compiled parallel runs race between threads, so only the
        # interpreter's one-thread run of the parallel kernel is pinned
        marks.append(pytest.mark.skipif(lp.JIT_ENABLED, reason="racy under compiled threads"))
    return pytest.param(key, id="-".join(map(str, key)), marks=marks)


@pytest.mark.parametrize("key", [_golden_case(k) for k in GOLDEN])
def test_golden_state(key):
    graph_name, algorithm, workers = key
    kw = {"workers": workers}
    if algorithm.startswith("copra"):
        kw["max_labels"] = int(algorithm[len("copra-ml"):])
        algorithm = "copra"
    assert full_state(algorithm, GRAPHS[graph_name](), **kw) == GOLDEN[key]



# Non-strict runs draw from the RNG at every tie (and SLPA at every speaking
# arc), so these pin the order in which each run consumes its stream.
GOLDEN_NON_STRICT = {
    ("ring", "rak"): (2, "5b30818a502c01acb4a1f33d6758cf042b3b309db82aa756e1638b648b85c853"),
    ("ring", "slpa"): (9, "f843c7205ddde53a6e92ea9037c8ee3774507ed653776e1e655a687f30bd4af0"),
    ("weighted", "rak"): (6, "ac72c6f27418e211e92c47905fa8b27cef0c8f365c4ef7235c0934cb8c6cb2ab"),
    ("weighted", "slpa"): (9, "9bc5709ae8abb4653917d71d9b00bdac8c2f5fda0bb2ecb25aaf79b73d0f4966"),
}


@pytest.mark.parametrize("key", list(GOLDEN_NON_STRICT), ids="-".join)
def test_golden_non_strict_state(key):
    graph_name, algorithm = key
    graph = GRAPHS[graph_name]()
    if algorithm == "rak":
        r = lp.rak_detect(graph, lp.RakParams(strict=False, seed=3))
        got = r.iterations, digest(r.assignment)
    else:
        labels, it, (slots, filled) = slpa_run(
            graph, lp.SlpaParams(memory_size=10, strict=False, seed=3)
        )
        got = it, digest(labels, slots, filled)
    assert got == GOLDEN_NON_STRICT[key]


GOLDEN_SHUFFLE = {
    (1000, 9): "d414bb15358069e09fd389c6a8a15313d0297b44389db244f9375aa18269ca93",
    (100_000, 7): "a8f375b509df2c639fcb8ad9d0f9ea56ce431299b1f3559dbcf63c2b64905d47",
}


@pytest.mark.parametrize("n, seed", list(GOLDEN_SHUFFLE))
def test_golden_shuffle(n, seed):
    assert digest(prng.shuffled_indices(n, seed)) == GOLDEN_SHUFFLE[n, seed]

def test_kernel_args_follow_the_backend():
    a = np.arange(3)
    (out,) = kernel_args(a)
    if lp.JIT_ENABLED:
        assert out is a
    else:
        assert out == [0, 1, 2] and all(type(x) is int for x in out)


def _every_run():
    """Full state of every detector variant on both graphs, plus a shuffle."""
    runs = {"shuffle": prng.shuffled_indices(1000, 9).tolist()}
    for name, make in GRAPHS.items():
        g = make()
        for workers in (1, 2):
            for strict in (True, False):
                r = lp.rak_detect(g, lp.RakParams(strict=strict, seed=4, workers=workers))
                runs[name, "rak", workers, strict] = (r.iterations, digest(r.assignment))
                labels, it, (slots, filled) = slpa_run(
                    g, lp.SlpaParams(memory_size=7, strict=strict, seed=4, workers=workers)
                )
                runs[name, "slpa", workers, strict] = (it, digest(labels, slots, filled))
                # M=4 then M=7 on one handle: the second call grows the held memories
                held = lp.Held(g)
                for memory_size in (4, 7):
                    labels, it, (slots, filled) = slpa_run(g, lp.SlpaParams(
                        memory_size=memory_size, strict=strict, seed=4, workers=workers
                    ), held)
                    runs[name, "slpa-held", memory_size, workers, strict] = (
                        it, digest(labels, slots, filled)
                    )
            # strict SLPA runs the kernel only compiled; run it here too
            with mock.patch.object(slpa, "JIT_ENABLED", True):
                labels, it, (slots, filled) = slpa_run(
                    g, lp.SlpaParams(memory_size=7, strict=True, seed=4, workers=workers)
                )
            runs[name, "slpa-launch", workers] = (it, digest(labels, slots, filled))
            for max_labels in (1, 3, 8):
                best, it, (labs, bels, sizes) = copra_run(
                    g, lp.CopraParams(max_labels=max_labels, seed=4, workers=workers)
                )
                runs[name, "copra", workers, max_labels] = (it, digest(best, labs, bels, sizes))
    return runs


def binding(name):
    """Names of the package's modules that bind ``name``; ``__main__`` is
    not imported, since importing it runs the command line."""
    names = (m.name for m in pkgutil.iter_modules(lp.__path__, "labelprop."))
    modules = [importlib.import_module(m) for m in names if m != "labelprop.__main__"]
    return {m.__name__: m for m in modules if name in vars(m)}


def test_array_fed_kernels_match_list_fed(monkeypatch):
    fed_by_backend = _every_run()
    converting, refilling = binding("kernel_args"), binding("refill")
    # the kernel launch and SLPA's grown memories turn arrays into lists;
    # the backend only defines the conversion
    assert set(converting) == {f"labelprop.{m}" for m in ("_backend", "result", "slpa")}
    assert set(refilling) == {"labelprop.prng", "labelprop.slpa"}
    called = set()
    for module in converting.values():
        def arrays_unchanged(*arrays, name=module.__name__):
            called.add(name)
            return arrays

        monkeypatch.setattr(module, "kernel_args", arrays_unchanged)
    # refill its stream rows with the compiled path's loop, as numba would
    for module in refilling.values():
        monkeypatch.setattr(module, "refill", prng._refill_loop)
    fed_arrays = _every_run()
    assert called == set(converting) - {"labelprop._backend"}
    assert fed_arrays == fed_by_backend
