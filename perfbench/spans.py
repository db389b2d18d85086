"""In-memory spans for the traced benchmark run.

The benchmark opens a span around each of its calls into the library;
the library itself is not instrumented.  A span records its name, start,
end, parent and the run id.  Spans stay in memory and are written as
Chrome-trace JSON (viewable in Perfetto) when the run ends.

Calls are sequential on one thread, so a span's children never overlap
and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  #: index of the enclosing span in ``Recorder.spans``
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to :meth:`durations` to see only later spans."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` recorded after ``since``."""
        return [s.duration for s in self.spans[since:] if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.duration - c
        return out

    def chrome_trace(self) -> dict:
        pid = os.getpid()
        t0 = self.spans[0].start if self.spans else 0.0
        events = []
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "run_id": s.run_id,
                        "parent": None if s.parent is None else self.spans[s.parent].name,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
