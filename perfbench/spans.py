"""In-memory span recorder for the traced benchmark run.

A span is a name, a start, an end and the index of the span that was open
when it started (its parent). Spans are appended to a list as they open and
written out as JSON when the run ends. A span's self time is its duration
minus the part of that interval covered by its direct children.

The recorder keeps one stack of open spans, so it is for single-threaded
code: the benchmark removes its wrappers before it starts worker threads.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=float("nan"), parent=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self._clock(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def wrap(self, fn, name: str, attrs=None):
        """`fn` recording one span per call; `attrs(args, result)` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, result)
            return result

        return traced

    def dump(self, path):
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": rows}, f)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


@contextmanager
def installed(recorder: SpanRecorder, targets):
    """Replace each `(module, attr, attrs)` function with a recording wrapper.

    The span is named after the function's own module, so one function
    patched at several call sites reports under one name. The originals
    are restored on exit.
    """
    originals = []
    try:
        for module, attr, attrs in targets:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            setattr(module, attr, recorder.wrap(fn, name, attrs))
        yield recorder
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
