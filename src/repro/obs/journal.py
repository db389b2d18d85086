"""Structured run journal: an append-only JSONL event log.

The tracer and metrics registry answer "where did the time go" and
"how much work was done" *after* a run finishes; the journal is the
durable record of *what happened while it ran*.  Each event raised
through :func:`repro.obs.emit` (see :data:`repro.obs.events.EVENTS`)
and each completed span in :data:`PHASE_SPANS` is appended as one JSON
line the moment it happens, so a crashed run leaves a forensic trail
up to the failure instant.  Each line is a schema-versioned envelope::

    {"v": 2, "seq": 12, "ts": 1754550000.123, "pid": 4242,
     "event": "retry", "data": {"site": "parallel.block", ...}}

``v`` is :data:`SCHEMA_VERSION`; ``seq`` increases per journal, so gaps
expose lost writes; ``ts`` is Unix time and ``pid`` the process that
owns the journal.

Writes are serialized by a lock and flushed per line, so the fleet's
worker threads cannot interleave half-lines; the file is opened in
append mode.  A journal inherited by a forked child process is inert
there (owner-pid guard): only the process that opened it writes.
Usage::

    from repro.obs import emit, journal

    with journal.Journal("run.jsonl") as j:
        journal.set_journal(j)
        emit("run_start", command="table2")
        ...                      # instrumented code emits as it runs
        emit("run_end", status="ok", exit_code=0)
    journal.set_journal(None)
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "SCHEMA_VERSION",
    "PHASE_SPANS",
    "Journal",
    "set_journal",
    "get_journal",
    "maybe_phase",
    "read_journal",
]

#: v1: original envelope.  v2: adds the ``supervisor.*`` event family;
#: the envelope itself is unchanged, so v1 journals still parse with
#: :func:`read_journal`.
SCHEMA_VERSION = 2

#: Span names significant enough to journal as ``phase`` events when a
#: journal is active.  The full span stream stays in the tracer; the
#: journal records only these coarse compute-phase completions.
PHASE_SPANS = frozenset(
    {
        "treecode.build",
        "treecode.upward",
        "treecode.traverse",
        "treecode.eval",
        "treecode.evaluate",
        "fmm.evaluate",
        "plan.compile",
        "plan.eval",
        "parallel.evaluate",
        "parallel.plan_execute",
        "bem.matvec",
        "gmres.cycle",
    }
)


def _jsonable(obj):
    """Best-effort JSON coercion for event payloads (numpy scalars,
    paths, anything with a sensible str)."""
    for caster in (int, float):
        try:
            return caster(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


class Journal:
    """Append-only JSONL event log with a schema-versioned envelope."""

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a")
        self._lock = threading.Lock()
        self._seq = 0
        self._owner_pid = os.getpid()
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._closed and os.getpid() == self._owner_pid:
                self._fh.close()
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- writing -------------------------------------------------------
    def write(self, event: str, data: dict) -> None:
        """Append one line (no-op after close or in a forked child)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        with self._lock:
            line = json.dumps(
                {
                    "v": SCHEMA_VERSION,
                    "seq": self._seq,
                    "ts": time.time(),
                    "pid": self._owner_pid,
                    "event": event,
                    "data": data,
                },
                default=_jsonable,
            )
            self._seq += 1
            self._fh.write(line + "\n")
            self._fh.flush()


#: The active journal :func:`repro.obs.emit` and :func:`maybe_phase` write to.
_active: Journal | None = None


def set_journal(journal: Journal | None) -> Journal | None:
    """Install ``journal`` as the active journal; returns the previous
    one so callers can restore it."""
    global _active
    previous = _active
    _active = journal
    return previous


def get_journal() -> Journal | None:
    return _active


def maybe_phase(name: str, dur_s: float, args: dict) -> None:
    """Tracer hook: journal a completed span iff it is a known phase."""
    if _active is not None and name in PHASE_SPANS:
        _active.write("phase", {"name": name, "dur_s": dur_s, "args": dict(args)})


def read_journal(path: str) -> list[dict]:
    """Parse a journal file back into event dicts (testing/tooling)."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
