"""Fault-tolerant execution layer.

Four cooperating pieces, wired through the parallel executor, GMRES,
the FMM engine and the experiment drivers:

* :mod:`~repro.robust.faults` — deterministic, seeded fault injection
  (worker-block errors/hangs, NaN corruption) from a spec string, the
  ``--inject-faults`` CLI flag, or ``REPRO_INJECT_FAULTS``;
* :mod:`~repro.robust.retry` — bounded retry with decorrelated-jitter
  backoff for parallel work units;
* :mod:`~repro.robust.guards` — NaN/Inf guards at the treecode/FMM
  boundaries, the Theorem-1 bound-accounting sanity check, and GMRES
  breakdown/stagnation recovery (restart escalation, dense fallback);
* :mod:`~repro.robust.checkpoint` — atomic JSON checkpoint/resume for
  long experiment sweeps;
* :mod:`~repro.robust.supervisor` — the thread fleet every parallel
  plan execution runs on: heartbeats, the hang watchdog, the memory
  breaker, poison-unit quarantine, and the ``thread -> serial``
  degradation ladder (see DESIGN.md §12).

Every recovery action (retry, fallback, guard trip, resume, reap...) is
one :func:`repro.obs.emit` event, which bumps its counter, writes a
journal line and marks the trace, so ``python -m repro profile`` and
the journal show exactly what a run absorbed.  See DESIGN.md §8 for the failure
model and per-failure recovery policy.
"""

from .checkpoint import Checkpoint, CheckpointMismatch, cached_step
from .faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    active_injector,
    clear_ballast,
    maybe_corrupt,
    maybe_fault,
    parse_fault_spec,
    set_injector,
    suppress_faults,
)
from .guards import (
    BoundAccountingError,
    NumericalCorruptionError,
    RobustSolveResult,
    check_bound_accounting,
    check_finite,
    solve_with_recovery,
)
from .retry import RetryExhausted, RetryPolicy, retry_call
from .supervisor import (
    BackendDegraded,
    HeartbeatTable,
    Supervisor,
    SupervisorConfig,
    abandoned_threads,
    current_rss,
    default_config,
)

__all__ = [
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "parse_fault_spec",
    "active_injector",
    "set_injector",
    "maybe_fault",
    "maybe_corrupt",
    "suppress_faults",
    "RetryPolicy",
    "RetryExhausted",
    "retry_call",
    "NumericalCorruptionError",
    "BoundAccountingError",
    "check_finite",
    "check_bound_accounting",
    "solve_with_recovery",
    "RobustSolveResult",
    "Checkpoint",
    "CheckpointMismatch",
    "cached_step",
    "clear_ballast",
    "abandoned_threads",
    "Supervisor",
    "SupervisorConfig",
    "HeartbeatTable",
    "BackendDegraded",
    "default_config",
    "current_rss",
]
