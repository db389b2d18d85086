"""Nestable span tracing with Chrome-trace-format export.

The paper's analysis is an *accounting* argument — cost and error are
budgeted per phase, per degree, per tree level — and this module gives
the runtime the same ledger: every compute phase (tree build, upward
pass, traversal, far/near evaluation, M2L, GMRES cycles, parallel
worker blocks) opens a :func:`span`, and the resulting timeline exports
to the Chrome trace event format, viewable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Design constraints:

* **Near-zero overhead when disabled.**  Tracing is off by default;
  :func:`span` then returns a shared singleton no-op context manager —
  one global-flag check and *no allocation* on the hot path.
* **Thread-safe.**  Spans carry the recording thread's id, and the
  tracer appends completed spans under a lock, so the parallel executor
  can trace worker blocks concurrently; nesting is expressed by
  interval containment within a thread, which is exactly how the Chrome
  ``"X"`` (complete) event phase renders flame graphs.
* **Process-aware.**  Every event records the pid of the process that
  produced it at *record* time (not export time), so the exported
  Chrome trace places each span in the lane of the process it ran in.
* **Duration available to the caller.**  :func:`stopwatch` is the
  always-timing variant: it measures ``elapsed`` whether or not tracing
  is enabled (emitting a trace event only when it is), so code that
  needs wall times for its own reporting — :class:`TreecodeStats`,
  experiment tables — uses one primitive instead of ad-hoc
  ``time.perf_counter()`` pairs.

Usage::

    from repro.obs import tracing

    tracing.enable()
    with tracing.span("treecode.evaluate", n=len(points)):
        ...
    tracing.get_tracer().export("trace.json")
"""

from __future__ import annotations

import json
import os
import threading
import time

from . import journal

__all__ = [
    "Span",
    "Tracer",
    "enable",
    "disable",
    "set_enabled",
    "is_enabled",
    "span",
    "stopwatch",
    "instant",
    "get_tracer",
]

_enabled: bool = False


def is_enabled() -> bool:
    """Whether tracing (and gated metrics collection) is on."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def set_enabled(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled.

    A single module-level instance serves every disabled :func:`span`
    call, so the disabled fast path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self

    @property
    def elapsed(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class Span:
    """One timed interval; records itself into a tracer on exit.

    ``tracer`` may be ``None`` (the :func:`stopwatch` case with tracing
    disabled): the span still times itself but records nothing.
    """

    __slots__ = ("name", "cat", "args", "t0", "t1", "_tracer")

    def __init__(self, tracer: "Tracer | None", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.t0 = 0.0
        self.t1 = 0.0

    def __enter__(self) -> "Span":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.t1 = time.perf_counter()
        if self._tracer is not None:
            self._tracer._record(self)
        return False

    def set(self, **args) -> "Span":
        """Attach/update key-value arguments shown in the trace viewer."""
        self.args.update(args)
        return self

    @property
    def elapsed(self) -> float:
        """Duration in seconds (valid after ``__exit__``; live if inside)."""
        if self.t1:
            return self.t1 - self.t0
        return time.perf_counter() - self.t0 if self.t0 else 0.0


class Tracer:
    """Thread-safe collector of completed spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (name, cat, pid, tid, t0, t1, args) — pid captured per event
        self._events: list[tuple] = []
        self._epoch = time.perf_counter()

    def _record(self, sp: Span) -> None:
        pid = os.getpid()
        tid = threading.get_ident()
        with self._lock:
            self._events.append((sp.name, sp.cat, pid, tid, sp.t0, sp.t1, sp.args))
        journal.maybe_phase(sp.name, sp.t1 - sp.t0, sp.args)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._epoch = time.perf_counter()

    def events(self) -> list[dict]:
        """Completed spans as dicts (seconds relative to the epoch)."""
        with self._lock:
            snap = list(self._events)
            epoch = self._epoch
        return [
            {
                "name": name,
                "cat": cat,
                "pid": pid,
                "tid": tid,
                "start": t0 - epoch,
                "end": t1 - epoch,
                "dur": t1 - t0,
                "args": dict(args),
            }
            for name, cat, pid, tid, t0, t1, args in snap
        ]

    def summary(self) -> list[dict]:
        """Aggregate spans by name: call count and total seconds,
        sorted by descending total time."""
        agg: dict[str, list] = {}
        for ev in self.events():
            rec = agg.setdefault(ev["name"], [0, 0.0])
            rec[0] += 1
            rec[1] += ev["dur"]
        rows = [
            {"name": name, "count": c, "total_s": t} for name, (c, t) in agg.items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
        return rows

    def to_chrome_trace(self) -> dict:
        """Chrome trace event format (the ``"X"`` complete-event phase);
        load the exported JSON in Perfetto or ``chrome://tracing``.

        Each event carries the pid and thread id recorded when the span
        closed, so fleet workers render as their own thread lanes."""
        with self._lock:
            snap = list(self._events)
            epoch = self._epoch
        trace_events = [
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": (t0 - epoch) * 1e6,  # microseconds
                "dur": (t1 - t0) * 1e6,
                "args": dict(args),
            }
            for name, cat, pid, tid, t0, t1, args in snap
        ]
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, cat: str = "repro", **args) -> Span | _NullSpan:
    """Open a traced span; a shared no-op when tracing is disabled.

    Use on hot paths: the disabled case is one flag check, zero
    allocation.  The returned object is a context manager::

        with span("treecode.far_field", pairs=n):
            ...
    """
    if not _enabled:
        return _NULL_SPAN
    return Span(_TRACER, name, cat, args)


def instant(name: str, args: dict, cat: str = "event") -> None:
    """Record a zero-length trace event when tracing is on."""
    if _enabled:
        sp = Span(_TRACER, name, cat, args)
        sp.t0 = sp.t1 = time.perf_counter()
        _TRACER._record(sp)


def stopwatch(name: str, cat: str = "repro", **args) -> Span:
    """A span that always measures ``elapsed``, tracing only if enabled.

    For code that consumes the duration itself (stats fields, experiment
    tables) — the single replacement for ad-hoc ``perf_counter`` pairs.
    """
    return Span(_TRACER if _enabled else None, name, cat, args)
