"""One event stream: :func:`emit` and the :data:`EVENTS` table.

Every discrete event of a run (a retry, a guard trip, a plan compile, a
reap...) is one call, ``emit(event, **fields)``.  The event's row names
its counter and required payload keys, and three sinks derive from the
call: the counter (bumped whether or not tracing is on), a journal line
(when a journal is active) and a zero-length trace event (when tracing
is on).  An unknown event or a missing payload key raises.

A forked fleet worker brackets each unit with :func:`worker_reset`,
after which :func:`emit` holds the unit's journal lines, and
:func:`worker_snapshot`, which ships them home with its spans and
metrics; the parent's :func:`merge_worker_snapshot` writes them under
the worker's pid.  Measurements (sizes, timings, residuals) are not
events: they stay direct registry calls gated on tracing.
"""

from __future__ import annotations

import os
import time
from typing import Callable, NamedTuple

from . import journal
from .metrics import REGISTRY
from .tracing import get_tracer, instant

__all__ = [
    "EVENTS",
    "emit",
    "validate_event",
    "worker_reset",
    "worker_snapshot",
    "merge_worker_snapshot",
]


class Event(NamedTuple):
    counter: str | None  #: bumped once per event (None: journal only)
    keys: frozenset  #: payload keys every emit must carry
    help: str = ""
    labels: tuple = ()  #: counter labels, read from the payload
    #: a second counter, ``(name, help, amount(fields))``, skipped at 0
    also: tuple[str, str, Callable[[dict], float]] | None = None


def _e(counter, keys, help="", labels=(), also=None) -> Event:
    return Event(counter, frozenset(keys.split()), help, labels, also)


_WAIT = "slot unit waited_s deadline_s"

#: event name -> :class:`Event`; payloads may carry more than the keys
EVENTS: dict[str, Event] = {
    # journal only: run lifecycle (the CLI's --journal), tracer phases,
    # RunRecorder summaries
    "run_start": _e(None, "command"),
    "run_end": _e(None, "status exit_code"),
    "phase": _e(None, "name dur_s args"),
    "run_summary": _e(None, "name wall_s spans counters"),
    "bound_ledger": _e(None, "label total by_level"),
    # robustness
    "fault_injected": _e("faults_injected", "site mode",
                         "faults fired by the injection harness"),
    "retry": _e("block_retries", "site attempt error",
                "worker-block attempts retried after a failure"),
    "fallback": _e("block_fallbacks", "site kind unit",
                   "blocks recovered via graceful degradation"),
    "guard_trip": _e("guard_trips", "site reason",
                     "numerical guard violations detected"),
    "checkpoint_write": _e("checkpoint_rows_written", "path key rows",
                           "experiment steps persisted to checkpoints"),
    "checkpoint_resume": _e("checkpoint_rows_resumed", "path key",
                            "experiment steps replayed from checkpoints"),
    "gmres_breakdown": _e("gmres_breakdowns", "iterations restarts",
                          "GMRES solves stopped on non-finite arithmetic"),
    "gmres_stagnation": _e(
        "gmres_stagnations", "iterations restarts rel_residual",
        "GMRES solves stopped early on restart-cycle stagnation"),
    "gmres_escalation": _e(
        "gmres_restart_escalations", "restart reason",
        "GMRES restart-parameter escalations after stagnation"),
    "gmres_dense_fallback": _e("gmres_dense_fallbacks", "n",
                               "dense direct solves after GMRES failure"),
    # supervision (journal schema v2)
    "supervisor.heartbeat_miss": _e(
        "supervisor_heartbeat_misses", _WAIT,
        "busy worker slots whose heartbeat went stale past the deadline"),
    "supervisor.reap": _e(
        "supervisor_reaps", _WAIT + " kind", "stuck or over-budget workers replaced",
        also=("supervisor_oom_reaps", "workers reaped for exceeding the RSS budget",
              lambda f: f["kind"] == "oom")),
    "supervisor.worker_death": _e("supervisor_worker_deaths", "slot unit",
                                  "workers that died without being reaped"),
    "supervisor.quarantine": _e("supervisor_quarantines", "unit failures kind",
                                "poison units completed on the parent"),
    "supervisor.breaker_trip": _e("supervisor_breaker_trips", "reason",
                                  "circuit-breaker trips (any rung)"),
    "supervisor.degraded": _e("supervisor_degradations", "frm to reason units_left",
                              "backend downgrades along the ladder"),
    "supervisor.memory_shed": _e(
        "supervisor_memory_sheds", "freed_bytes rss budget",
        "plan memory sheds under RSS pressure",
        also=("supervisor_memory_shed_bytes", "plan bytes released under RSS pressure",
              lambda f: f["freed_bytes"])),
    "thread_abandoned": _e("abandoned_threads", "slot unit",
                           "fleet thread workers abandoned at the hang deadline"),
    # compiled plans and the plan store
    "plan_compile": _e("plan_compiles", "mode targets memory_bytes compile_s",
                       "evaluation plans compiled"),
    "plan_depth": _e("plan_depth_choices", "chosen height candidates",
                     "cluster-plan octree cut levels chosen by the cost model"),
    "plan_shed": _e("plan_sheds", "stage freed_bytes memory_bytes",
                    "plan memory-shed stages run"),
    "plan_cache.hit": _e("plan_cache_hits", "kind digest path load_s",
                         "plans restored from the on-disk store"),
    "plan_cache.miss": _e("plan_cache_misses", "kind digest reason",
                          "plan-store lookups that fell back to a fresh compile",
                          labels=("reason",)),
    "plan_cache.store": _e("plan_cache_stores", "kind digest path bytes",
                           "plans persisted to the on-disk store"),
    "plan_cache.store_failed": _e(None, "kind digest error"),
}

#: journal lines a forked fleet worker holds for its parent (None
#: outside such a worker, or when no journal is active)
_held: list | None = None


def emit(event: str, **fields) -> None:
    """Raise one event: bump its counter, journal it, trace it."""
    spec = EVENTS.get(event)
    if spec is None:
        raise KeyError(f"unknown event {event!r}: add it to repro.obs.events.EVENTS")
    if not spec.keys <= fields.keys():
        missing = sorted(spec.keys - fields.keys())
        raise ValueError(f"event {event!r} needs payload keys {missing}")
    if spec.counter is not None:
        c = REGISTRY.counter(spec.counter, spec.help, labelnames=spec.labels)
        if spec.labels:
            c = c.labels(**{k: fields[k] for k in spec.labels})
        c.inc()
    if spec.also is not None:
        name, help, amount = spec.also
        if n := amount(fields):
            REGISTRY.counter(name, help).inc(n)
    if _held is not None:
        _held.append((event, time.time(), os.getpid(), fields))
    elif (j := journal.get_journal()) is not None:
        j.write(event, fields)
    instant(event, fields)


def validate_event(entry: dict) -> bool:
    """True iff a parsed journal line is a known event with a v2+
    envelope and every required payload key (v1 lines still parse
    with :func:`~repro.obs.journal.read_journal`, but never validate)."""
    spec = EVENTS.get(entry.get("event"))
    if spec is None or entry.get("v", 0) < 2:
        return False
    return spec.keys <= set(entry.get("data", {}))


def worker_reset() -> None:
    """Start a unit in a forked worker: drop the spans, metrics and lines
    inherited from the parent or the previous unit, and hold this
    unit's journal lines if the parent has a journal."""
    global _held
    get_tracer().clear()
    REGISTRY.reset()
    _held = [] if journal.get_journal() is not None else None


def worker_snapshot() -> dict:
    """The unit's telemetry, picklable for the trip home."""
    return {
        "spans": get_tracer().snapshot(),
        "metrics": REGISTRY.to_dict(),
        "journal": list(_held or ()),
    }


def merge_worker_snapshot(snapshot: dict | None) -> None:
    """Fold a worker's :func:`worker_snapshot` (None: a thread worker's,
    already in place) into this process: spans keep their worker pid,
    counters sum, gauges take the worker's last write, histograms merge
    bucket-wise, and journal lines are written under the worker's pid
    and time."""
    if snapshot is None:
        return
    get_tracer().ingest(snapshot["spans"])
    REGISTRY.merge_snapshot(snapshot["metrics"])
    REGISTRY.counter(
        "worker_snapshots_merged", "worker telemetry snapshots merged by the parent"
    ).inc()
    if (j := journal.get_journal()) is not None:
        for event, ts, pid, fields in snapshot["journal"]:
            j.write(event, fields, pid=pid, ts=ts)
