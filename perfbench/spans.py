"""In-memory spans recorded by the benchmark around its calls into the library.

A span has a name, a parent span and start and end times. Spans stay in flat
integer arrays while the run lasts and are summarised when it ends, so that
recording one costs little and no output happens mid-run.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NO_PARENT = -1


class Tracer:
    """The spans of one run, each with its parent, kept in memory."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._open[-1] if self._open else _NO_PARENT)
        self._end.append(0)
        self._open.append(sid)
        self._start.append(perf_counter_ns())
        try:
            yield
        finally:
            self._end[sid] = perf_counter_ns()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to ``self_times`` to summarise only later spans."""
        return len(self._start)

    def self_times(self, since: int = 0) -> dict[str, tuple[int, int]]:
        """Per span name: (count, total self time in ns) of spans since ``since``.

        Self time is a span's duration minus the durations of its children.
        """
        own = [self._end[s] - self._start[s] for s in range(since, len(self._start))]
        for s in range(since, len(self._start)):
            p = self._parent[s]
            if p >= since:
                own[p - since] -= self._end[s] - self._start[s]
        out: dict[str, list[int]] = {}
        for s, t in enumerate(own, since):
            acc = out.setdefault(self._names[self._name[s]], [0, 0])
            acc[0] += 1
            acc[1] += t
        return {k: (c, t) for k, (c, t) in out.items()}


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL
