"""Span recording from outside the program, and layer self times.

`instrument` replaces the public names that ``labelprop.cli`` and the
detect drivers call with wrappers that open and close spans in a
`Recorder`; the package's own files are not edited.  A span has a name,
a start, an end and the index of the span that was open when it began.
A span may also carry ``inner`` seconds of work that the program timed
itself (``DetectionResult.elapsed``), credited to another layer.

A layer's self time is its span's duration minus the part of that
interval its child spans cover, minus its ``inner`` seconds.  Because
every second of the root span belongs to exactly one span's self time
or one ``inner`` slice, the self times of all layers sum to the root
span's duration.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    inner: float = 0.0
    inner_layer: str = ""
    counts: dict = field(default_factory=dict)


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(span, result, args, kwargs)`` may
        annotate the span once it has closed."""

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, result, args, kwargs)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """A generator function whose every resumption, up to its next
        yield, is one span; time the consumer spends between items is not."""

        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                index = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield item

        return wrapper


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict:
    """Seconds of self time per layer, including ``inner`` slices."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = s.end - s.start - union_length(children.get(i, ())) - s.inner
        out[s.name] = out.get(s.name, 0.0) + own
        if s.inner_layer:
            out[s.inner_layer] = out.get(s.inner_layer, 0.0) + s.inner
    return out


def _note_detection(alg: str):
    def after(span, result, args, kwargs):
        graph = args[0]
        span.inner = result.elapsed
        span.inner_layer = f"{alg}.kernel"
        span.counts = {"iterations": result.iterations,
                       "arc_visits": result.iterations * graph.edge_count}

    return after


def _note_parse(span, result, args, kwargs):
    if isinstance(args[0], (str, os.PathLike)):
        span.counts = {"bytes": os.path.getsize(args[0])}


@contextlib.contextmanager
def instrument(recorder: Recorder, on_run_one=None):
    """Wrap the package's layer entry points with span recorders.

    ``on_run_one(span, result, args, kwargs)`` sees every dispatched
    detection (used to hash strict single-worker assignments).
    """
    import labelprop.cli as cli
    import labelprop.copra as copra
    import labelprop.rak as rak
    import labelprop.slpa as slpa
    import labelprop.sweep as sweep

    patches = [
        (cli, "load_graph", recorder.wrap(cli.load_graph, "graph.parse", _note_parse)),
        (cli, "preprocess", recorder.wrap(cli.preprocess, "graph.preprocess")),
        (cli, "run_sweep", recorder.wrap_generator(cli.run_sweep, "sweep.run_sweep")),
        (rak, "shuffled_indices", recorder.wrap(rak.shuffled_indices, "prng.shuffle")),
    ]
    run_one = recorder.wrap(sweep.run_one, "sweep.run_one", on_run_one)
    patches += [(cli, "run_one", run_one), (sweep, "run_one", run_one)]
    for mod, alg in ((rak, "rak"), (copra, "copra"), (slpa, "slpa")):
        detect = getattr(sweep, f"{alg}_detect")
        patches += [
            (sweep, f"{alg}_detect", recorder.wrap(detect, f"{alg}.detect", _note_detection(alg))),
            (mod, "check_symmetric", recorder.wrap(mod.check_symmetric, "graph.check_symmetric")),
            (mod, "modularity", recorder.wrap(mod.modularity, "quality.modularity")),
        ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, wrapper in patches:
            setattr(mod, name, wrapper)
        yield recorder
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


ALGORITHMS = ("rak", "copra", "slpa")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced run, keyed by metric name.

    Layers a run does not enter read 0.  ``arc_visits_per_s`` is computed
    as iterations x edge_count / kernel seconds, not counted.
    """
    own = self_times(spans)
    root = next(s for s in spans if s.parent < 0)

    def total(name, key=None):
        picked = [s for s in spans if s.name == name]
        if key is None:
            return sum(s.end - s.start for s in picked)
        return sum(s.counts.get(key, 0) for s in picked)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    parse_s = own.get("graph.parse", 0.0)
    m = {
        "graph.parse_s": parse_s,
        "graph.parse_mb_per_s": ratio(total("graph.parse", "bytes") / 1e6, parse_s),
        "graph.preprocess_s": own.get("graph.preprocess", 0.0),
        "graph.check_symmetric_s": own.get("graph.check_symmetric", 0.0),
        "graph.check_symmetric_calls": calls("graph.check_symmetric"),
        "prng.shuffle_s": own.get("prng.shuffle", 0.0),
    }
    for alg in ALGORITHMS:
        kernel = own.get(f"{alg}.kernel", 0.0)
        iterations = total(f"{alg}.detect", "iterations")
        m.update({
            f"{alg}.detect_s": total(f"{alg}.detect"),
            f"{alg}.kernel_s": kernel,
            f"{alg}.driver_self_s": own.get(f"{alg}.detect", 0.0),
            f"{alg}.iterations": iterations,
            f"{alg}.s_per_iteration": ratio(kernel, iterations),
            f"{alg}.arc_visits_per_s": ratio(total(f"{alg}.detect", "arc_visits"), kernel),
        })
    m.update({
        "quality.modularity_s": own.get("quality.modularity", 0.0),
        "quality.modularity_calls": calls("quality.modularity"),
        "sweep.run_one_s": total("sweep.run_one"),
        "sweep.self_s": own.get("sweep.run_one", 0.0) + own.get("sweep.run_sweep", 0.0),
        "sweep.rows": calls("sweep.run_one"),
        "cli.self_s": own.get(root.name, 0.0),
        "trace.wall_s": root.end - root.start,
        "trace.self_sum_s": sum(own.values()),
    })
    return m
