"""Unified observability: span tracing, metrics, and run recording.

Three cooperating pieces, all off by default and near-free when off:

* :mod:`repro.obs.tracing` — nestable, thread-safe spans with
  Chrome-trace JSON export (view in Perfetto);
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and log-bucketed histograms with Prometheus-text and JSON
  exposition;
* :mod:`repro.obs.recorder` — :class:`RunRecorder`, snapshotting one
  evaluation (spans + metrics + per-level Theorem-1 bound accounting)
  into a single serializable report;
* :mod:`repro.obs.journal` — :class:`Journal`, an append-only JSONL
  event log (the CLI's ``--journal FILE``);
* :mod:`repro.obs.events` — :func:`emit`, the one call that raises an
  event, and :data:`EVENTS`, the table that derives its counter,
  journal line and trace event.

Enable globally with :func:`repro.obs.enable` (or the CLI's
``profile`` subcommand / ``--trace`` / ``--metrics`` flags); the
compute layers — treecode, FMM, BEM/GMRES, parallel executor — are
pre-instrumented.
"""

from .events import EVENTS, emit
from .journal import Journal, get_journal, set_journal
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from .recorder import RunRecorder
from .tracing import (
    Tracer,
    disable,
    enable,
    get_tracer,
    is_enabled,
    set_enabled,
    span,
    stopwatch,
)

__all__ = [
    "EVENTS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Journal",
    "MetricsRegistry",
    "RunRecorder",
    "Tracer",
    "get_journal",
    "set_journal",
    "disable",
    "emit",
    "enable",
    "get_tracer",
    "is_enabled",
    "set_enabled",
    "span",
    "stopwatch",
]
