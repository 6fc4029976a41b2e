"""Spans around the benchmark's own calls into the library.

A span is the tuple (name, start, end, parent, op, size): the layer
function it wraps, perf_counter times, the index of the enclosing span
(None at top level), the id of the op it belongs to (None during
set-up) and a work size recorded at the call site, such as the letters
of a word.  Spans stay in memory until the pass ends.  The library is
never patched: only calls made by the benchmark are timed.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records one span per wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, name, parent, start, size) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op, size)

    def call(self, fn, *args, size: int = 0, name: str | None = None):
        """fn(*args) in a span named <module>.<function> unless name is given.

        The span starts before the tracer's own bookkeeping, so that
        the bookkeeping is not counted as the enclosing span's self time.
        """
        start = perf_counter()
        if name is None:
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        index, parent = self._open()
        try:
            return fn(*args)
        finally:
            self._close(index, name, parent, start, size)

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        index, parent = self._open()
        try:
            yield
        finally:
            self._close(index, name, parent, start, 0)


class NullTracer:
    """The untraced path: calls go straight through."""

    op = None

    def call(self, fn, *args, size: int = 0, name: str | None = None):
        return fn(*args)

    def span(self, name: str):
        return nullcontext()


def layer_totals(spans: list) -> dict[str, dict]:
    """Self seconds, calls and summed sizes per span name.

    A span's self time is its duration minus the time of its direct
    children, so an op span keeps only the work no layer call covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, size in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for (name, start, end, parent, op, size), inner in zip(spans, child_time):
        entry = totals.setdefault(name, {"s": 0.0, "calls": 0, "size": 0})
        entry["s"] += end - start - inner
        entry["calls"] += 1
        entry["size"] += size
    return totals


def coverage(spans: list) -> float:
    """Share of the ops' time spent inside their layer calls.

    This is 1 - bench.op.s / (time of the top-level op spans).  Library
    work an op does outside a span lowers it, as do the benchmark's own
    checks.
    """
    top = {
        index
        for index, (name, start, end, parent, op, size) in enumerate(spans)
        if parent is None and op is not None
    }
    op_time = covered = 0.0
    for index, (name, start, end, parent, op, size) in enumerate(spans):
        if index in top:
            op_time += end - start
        elif parent in top:
            covered += end - start
    return covered / op_time


def us_per_letter(spans: list, name: str, low: int, high: float) -> float:
    """Microseconds per input letter over the calls with low < size <= high."""
    seconds = letters = 0
    for span_name, start, end, parent, op, size in spans:
        if span_name == name and low < size <= high:
            seconds += end - start
            letters += size
    return seconds / letters * 1e6 if letters else 0.0
