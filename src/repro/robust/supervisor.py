"""Supervised execution: the worker fleet every parallel plan run uses.

:func:`run_plan_units` is the one executor of compiled-plan work units
(see :mod:`repro.parallel.executors`).  It runs them on a fleet of
worker threads or forked worker processes under one coordinator loop,
:func:`run_fleet`, which guards against every failure class a long run
meets:

* **Errors and corrupt output** — each worker retries a failing unit
  under the :class:`~repro.robust.RetryPolicy`; a unit that exhausts its
  retries takes a strike and goes back to the pool.
* **Heartbeat table** — fixed per-worker slots of ``[ident, unit,
  CLOCK_MONOTONIC, rss]`` written at every attempt and read lock-free by
  the coordinator.  Process fleets keep it in ``multiprocessing.
  shared_memory`` (``CLOCK_MONOTONIC`` is system-wide on Linux, so
  parent and forked children share the clock); thread fleets keep it in
  a plain array.
* **Hang watchdog** — the coordinator's bounded wait for results doubles
  as the watchdog: every ``heartbeat_interval`` it compares each running
  unit's last stamp against a deadline (fixed via ``unit_deadline``, or
  adaptive ``max(min_deadline, multiplier · observed-per-unit-p95)``).
  An overdue process is SIGKILLed; an overdue thread is abandoned to a
  ledger (:func:`abandoned_threads`), since a hung kernel cannot be
  interrupted from Python.  Either way a fresh worker takes the slot.
  The scan period is capped at half the deadline, so a hang is always
  replaced within 2x the deadline.
* **Poison-unit quarantine** — a unit that fails or hangs
  ``quarantine_after`` times is quarantined: the coordinator completes
  it with fault injection suppressed (identical arithmetic — bitwise
  equal to serial), falling back to exact per-pair direct summation
  (``plan.execute_unit_direct``) if even the suppressed redo fails.
  Interaction-count stats are frozen at compile time, so quarantine
  never perturbs them.
* **Memory watchdog** — heartbeat rows of process workers carry their
  RSS; a worker over the per-process ``memory_budget`` is reaped (kind
  ``"oom"``).  When the *parent* crosses the budget it first triggers the
  compiled plan's staged :meth:`shed_memory` (float32 rows, then
  drop-to-spill); only when there is nothing left to shed does the
  breaker trip.
* **Circuit breaker / degradation ladder** — ``max_worker_deaths`` lost
  workers or ``max_unit_failures`` unit failures on one rung, or
  exhausted memory shedding, trip the breaker: :class:`BackendDegraded`
  is raised with partial results kept, and the remaining units run one
  rung down the ladder (``process -> thread -> serial``).

Every supervision event is one :func:`repro.obs.emit` call (a
``supervisor_*`` counter, a journal line, a trace event), so ``python
-m repro profile`` shows a health report of what a run absorbed;
events raised inside process workers ride home in their snapshots.

Robustness notes: every worker has its own task queue, and every
process worker its own result pipe written synchronously, so a process
killed at any point — even mid-send — can only break its own channels,
which are discarded with it.  All shared-memory segments (operands and the heartbeat table) are
registered with an ``atexit`` + ``SIGTERM`` cleanup hook, so an
interrupted run leaves no ``/dev/shm`` residue.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..obs import emit
from ..obs.events import merge_worker_snapshot, worker_reset, worker_snapshot
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from .faults import InjectedFault, maybe_corrupt, maybe_fault, suppress_faults
from .guards import check_finite
from .retry import retry_call

__all__ = [
    "SupervisorConfig",
    "Supervisor",
    "HeartbeatTable",
    "BackendDegraded",
    "default_config",
    "current_rss",
    "abandoned_threads",
    "run_fleet",
    "run_plan_units",
    "create_segment",
    "release_segment",
    "cleanup_segments",
    "ENV_HEARTBEAT_INTERVAL",
    "ENV_UNIT_DEADLINE",
    "ENV_MEMORY_BUDGET",
]

ENV_HEARTBEAT_INTERVAL = "REPRO_HEARTBEAT_INTERVAL"
ENV_UNIT_DEADLINE = "REPRO_UNIT_DEADLINE"
ENV_MEMORY_BUDGET = "REPRO_MEMORY_BUDGET"  #: MiB


# ---------------------------------------------------------------------------
# RSS measurement
# ---------------------------------------------------------------------------
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def current_rss() -> int:
    """This process's resident set size in bytes (``/proc/self/statm``,
    falling back to ``getrusage`` peak-RSS on hosts without procfs)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):  # pragma: no cover
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ---------------------------------------------------------------------------
# shared-memory segment tracking: no /dev/shm residue on abnormal exit
# ---------------------------------------------------------------------------
#: id(shm) -> (shm, owner pid).  Only the creating process may unlink —
#: forked children inherit this dict but their hooks skip foreign pids.
_TRACKED: dict[int, tuple] = {}
_TRACK_LOCK = threading.Lock()
_HOOKS_INSTALLED = False
_SEG_COUNTER = itertools.count()


def cleanup_segments() -> None:
    """Close and unlink every tracked segment owned by this process.

    Registered with ``atexit`` and chained onto SIGTERM; also safe to
    call directly.  ``unlink`` works even while numpy views of the
    buffer are still alive (it only removes the ``/dev/shm`` name).
    """
    with _TRACK_LOCK:
        items = list(_TRACKED.values())
        _TRACKED.clear()
    for shm, owner in items:
        if owner != os.getpid():
            continue
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def _install_cleanup_hooks() -> None:
    global _HOOKS_INSTALLED
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(cleanup_segments)
    # SIGINT surfaces as KeyboardInterrupt and unwinds through the
    # executors' finally blocks (and the atexit hook); SIGTERM by
    # default skips both, so chain a handler that cleans up first.
    if threading.current_thread() is not threading.main_thread():
        return  # signal handlers can only be set from the main thread
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_term(signum, frame):
            cleanup_segments()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def create_segment(nbytes: int):
    """Create a tracked, named ``SharedMemory`` segment.

    The name encodes the owning pid (``repro-<pid>-<seq>-<nonce>``), so
    leak checks can scan ``/dev/shm`` for a specific process's residue.
    """
    from multiprocessing import shared_memory

    name = f"repro-{os.getpid()}-{next(_SEG_COUNTER)}-{os.urandom(3).hex()}"
    shm = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)), name=name)
    _install_cleanup_hooks()
    with _TRACK_LOCK:
        _TRACKED[id(shm)] = (shm, os.getpid())
    return shm


def release_segment(shm) -> None:
    """Close, unlink and untrack one segment (idempotent)."""
    with _TRACK_LOCK:
        _TRACKED.pop(id(shm), None)
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# heartbeat table
# ---------------------------------------------------------------------------
_IDLE = -1.0  #: unit field of a slot with no unit in flight


class HeartbeatTable:
    """Fixed-slot worker-to-coordinator heartbeat channel.

    Layout: float64 ``(n_slots, 4)`` rows of ``[ident, unit,
    monotonic_ts, rss_bytes]``.  Exactly one writer per slot (the worker
    owning it) and one reader (the coordinator's watchdog); the
    timestamp is written last, and the watchdog tolerates torn reads
    because it compares timestamps with at least a full heartbeat
    interval of slack and cross-checks the ident field against its own
    bookkeeping.  ``shared=True`` (process fleets) backs the table with
    a ``multiprocessing.shared_memory`` segment; thread fleets share the
    address space and use a plain array.
    """

    FIELDS = 4

    def __init__(self, n_slots: int, shared: bool = True):
        self.n_slots = int(n_slots)
        shape = (self.n_slots, self.FIELDS)
        if shared:
            self._shm = create_segment(self.n_slots * self.FIELDS * 8)
            self.table = np.ndarray(shape, dtype=np.float64, buffer=self._shm.buf)
            self.table[:] = 0.0
        else:
            self._shm = None
            self.table = np.zeros(shape, dtype=np.float64)
        self.table[:, 1] = _IDLE

    @property
    def name(self) -> str:
        return self._shm.name

    def beat(
        self, slot: int, unit: int | float, rss: int = 0, ident: int | None = None
    ) -> None:
        """Publish one heartbeat for ``slot`` (called by the worker);
        ``ident`` defaults to the calling process's pid."""
        row = self.table[slot]
        row[0] = float(os.getpid() if ident is None else ident)
        row[1] = float(unit)
        row[3] = float(rss)
        row[2] = time.monotonic()  # ts last: fresh ts implies fresh fields

    def clear(self, slot: int) -> None:
        self.table[slot, 1] = _IDLE

    def read(self) -> np.ndarray:
        """A snapshot copy of the table (coordinator side)."""
        return np.array(self.table, copy=True)

    def close(self) -> None:
        self.table = None
        if self._shm is not None:
            release_segment(self._shm)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Thresholds and timings of the supervision layer."""

    heartbeat_interval: float = 0.05  #: watchdog scan period (seconds)
    unit_deadline: float | None = None  #: fixed hang deadline; None = adaptive
    deadline_multiplier: float = 4.0  #: adaptive: multiplier x observed p95
    min_deadline: float = 0.25  #: adaptive floor (seconds)
    #: deadline before enough samples exist.  Deliberately generous: a
    #: false timeout on a legitimately slow first unit wastes the whole
    #: attempt and leaves a CPU-burning abandoned thread, while a real
    #: hang merely waits this long once before statistics take over.
    warmup_deadline: float = 10.0
    warmup_samples: int = 5  #: completed units before p95 is trusted
    quarantine_after: int = 2  #: failures/hangs before a unit quarantines
    max_worker_deaths: int = 4  #: breaker: workers lost on one rung
    max_unit_failures: int = 16  #: breaker: unit failures on one rung
    memory_budget: int | None = None  #: per-process RSS budget (bytes)
    shed_fraction: float = 0.8  #: parent sheds plan memory at this x budget

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.unit_deadline is not None and self.unit_deadline <= 0:
            raise ValueError(f"unit_deadline must be > 0, got {self.unit_deadline}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(f"memory_budget must be > 0, got {self.memory_budget}")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError(
                f"shed_fraction must be in (0, 1], got {self.shed_fraction}"
            )


def default_config() -> SupervisorConfig:
    """Supervision tuning from the environment (defaults where unset).

    The CLI tuning flags export these variables rather than passing
    objects, so forked workers and nested entry points see one
    consistent config.
    """
    kwargs: dict = {}
    hb = os.environ.get(ENV_HEARTBEAT_INTERVAL, "").strip()
    if hb:
        kwargs["heartbeat_interval"] = float(hb)
    dl = os.environ.get(ENV_UNIT_DEADLINE, "").strip()
    if dl:
        kwargs["unit_deadline"] = float(dl)
    mb = os.environ.get(ENV_MEMORY_BUDGET, "").strip()
    if mb:
        kwargs["memory_budget"] = int(float(mb) * 1024 * 1024)
    return SupervisorConfig(**kwargs)


class BackendDegraded(RuntimeError):
    """The circuit breaker tripped: abandon the current backend and
    complete the remaining units one rung down the ladder."""

    def __init__(self, backend: str, reason: str):
        super().__init__(f"{backend} backend degraded: {reason}")
        self.backend = backend
        self.reason = reason


# ---------------------------------------------------------------------------
# parent-side bookkeeping + event emission
# ---------------------------------------------------------------------------
_DURATION_WINDOW = 256  #: recent per-unit durations kept for the p95
_DEADLINE_REFRESH = 16  #: samples between adaptive-deadline recomputes


class Supervisor:
    """Shared supervision state across the ladder's rungs.

    Tracks per-unit durations (for the adaptive deadline), per-unit
    failure counts (for quarantine), worker mortality and the breaker;
    the ``on_*`` methods update that state and emit the event.
    """

    def __init__(self, config: SupervisorConfig | None = None):
        self.cfg = config if config is not None else SupervisorConfig()
        self.quarantined: set[int] = set()
        self.worker_deaths = 0
        self.tripped = False
        self.trip_reason: str | None = None
        self.n_reaps = 0
        self.n_quarantines = 0
        self.n_degradations = 0
        # adaptive-deadline state: a bounded window of recent durations
        # plus a cached p95-derived deadline refreshed every
        # _DEADLINE_REFRESH samples — deadline() is called once per unit,
        # so it must not sort the history every time
        self._durations: deque = deque(maxlen=_DURATION_WINDOW)
        self._max_duration = 0.0
        self._deadline_cache: float | None = None
        self._since_refresh = 0
        self._failures: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- adaptive deadline ---------------------------------------------
    def record_duration(self, seconds: float) -> None:
        with self._lock:
            seconds = float(seconds)
            self._durations.append(seconds)
            if seconds > self._max_duration:
                self._max_duration = seconds
                self._deadline_cache = None
            self._since_refresh += 1
            if self._since_refresh >= _DEADLINE_REFRESH:
                self._deadline_cache = None
                self._since_refresh = 0

    def deadline(self) -> float:
        """Current hang deadline: fixed, or adaptive from observed p95.

        The p95 term calibrates homogeneous workloads; the
        ``2 x max-observed`` floor protects heterogeneous unit mixes
        (a few heavy far units among thousands of sub-ms near blocks),
        where a p95-only deadline would falsely time out every heavy
        unit — each false timeout wastes the whole attempt *and* leaves
        an abandoned thread burning CPU.  A genuine hang never
        completes, so it can never raise the floor.
        """
        cfg = self.cfg
        if cfg.unit_deadline is not None:
            return cfg.unit_deadline
        with self._lock:
            slowest = 2.0 * self._max_duration
            if len(self._durations) < cfg.warmup_samples:
                return max(cfg.min_deadline, cfg.warmup_deadline, slowest)
            if self._deadline_cache is None:
                durs = sorted(self._durations)
                p95 = durs[min(len(durs) - 1, int(0.95 * len(durs)))]
                self._deadline_cache = max(
                    cfg.min_deadline, cfg.deadline_multiplier * p95, slowest
                )
            return self._deadline_cache

    # -- failure accounting --------------------------------------------
    def record_failure(self, unit: int) -> bool:
        """Count one failure of ``unit``; True once it crosses the
        quarantine threshold (exactly once per unit)."""
        with self._lock:
            k = self._failures.get(unit, 0) + 1
            self._failures[unit] = k
            if k >= self.cfg.quarantine_after and unit not in self.quarantined:
                self.quarantined.add(unit)
                return True
        return False

    def failures_of(self, unit: int) -> int:
        with self._lock:
            return self._failures.get(unit, 0)

    def total_failures(self) -> int:
        with self._lock:
            return sum(self._failures.values())

    # -- events ---------------------------------------------------------
    def on_reap(
        self, slot: int, unit: int, waited: float, deadline: float, kind: str
    ) -> None:
        self.n_reaps += 1
        self.worker_deaths += 1
        emit(
            "supervisor.reap", slot=slot, unit=unit, waited_s=waited,
            deadline_s=deadline, kind=kind,
        )

    def on_worker_death(self, slot: int, unit: int | None) -> None:
        self.worker_deaths += 1
        emit("supervisor.worker_death", slot=slot, unit=unit)

    def on_quarantine(self, unit: int, kind: str) -> None:
        self.n_quarantines += 1
        failures = self.failures_of(unit)
        emit("supervisor.quarantine", unit=unit, failures=failures, kind=kind)

    def trip(self, reason: str) -> None:
        if self.tripped:
            return
        self.tripped = True
        self.trip_reason = reason
        emit(
            "supervisor.breaker_trip",
            reason=reason,
            deaths=self.worker_deaths,
            failures=self.total_failures(),
        )

    def on_degrade(self, frm: str, to: str, reason: str, units_left: int) -> None:
        self.n_degradations += 1
        # the next rung gets a fresh breaker
        self.tripped = False
        emit(
            "supervisor.degraded", frm=frm, to=to, reason=reason,
            units_left=units_left,
        )


def _complete_on_coordinator(plan, ctx, q_sorted, unit: int):
    """Complete one unit on the coordinating thread; returns ``(tids,
    vals, kind)``.

    First the suppressed-fault redo (identical arithmetic — bitwise
    equal to a healthy worker, kind ``"redo"``); exact per-pair direct
    summation (:meth:`execute_unit_direct`, kind ``"direct"``) only if
    even that fails, e.g. on corrupted plan state.  Spanned as
    ``robust.fallback``.
    """
    with suppress_faults(), span("robust.fallback", unit=unit):
        try:
            tids, vals = plan.execute_unit(ctx, q_sorted, unit)
            check_finite("parallel.fallback", vals, context="plan unit redo")
            return tids, vals, "redo"
        except Exception:
            tids, vals = plan.execute_unit_direct(q_sorted, unit)
            check_finite(
                "parallel.fallback", vals, context="plan unit direct summation"
            )
            return tids, vals, "direct"


# ---------------------------------------------------------------------------
# the worker fleet: one supervised dispatch loop for threads and processes
# ---------------------------------------------------------------------------
_QUEUE_DEPTH = 4  #: units queued on one worker at most (head included)
_SHORT_UNIT_S = 0.01  #: units faster than this are queued ahead

#: Thread workers abandoned at the hang deadline.  The threads are
#: daemons (they can never block interpreter exit), but keeping explicit
#: handles makes the leak observable: ``abandoned_threads()`` prunes
#: finished ones and returns those still running a hung kernel.
_ABANDONED: list[threading.Thread] = []
_ABANDONED_LOCK = threading.Lock()


def abandoned_threads() -> list[threading.Thread]:
    """Fleet thread workers abandoned at a hang deadline and still alive."""
    with _ABANDONED_LOCK:
        _ABANDONED[:] = [t for t in _ABANDONED if t.is_alive()]
        return list(_ABANDONED)


def _worker_loop(slot, ident, tasks, post, state, handle) -> None:
    """Body of one fleet worker, thread or forked process.

    Takes unit ids off its private ``tasks`` queue (``None`` stops it)
    and hands ``(slot, ident, unit, ok, payload, telemetry)`` to
    ``post``: the fleet's shared result queue for threads, the worker's
    own result pipe for processes.  Every attempt first publishes a
    heartbeat, so a hang inside an attempt leaves a stale stamp —
    exactly what the coordinator's watchdog looks for.  ``handle`` is
    the coordinator's record of a thread worker; a process worker gets
    ``None`` and instead owns the ``parallel.kill`` site and a private
    tracer, registry and journal buffer per unit, whose snapshot rides
    back with the result, failed or not (a thread worker's events land
    in the parent's sinks directly, so its ``telemetry`` is ``None``).
    """
    plan, ctx, q_sorted, policy, hb, obs_on, track_rss = state
    is_process = handle is None
    if is_process:
        ident = os.getpid()
    while True:
        unit = tasks.get()
        if unit is None or (handle is not None and handle.stopped):
            return
        if is_process:
            worker_reset()
            try:
                maybe_fault("parallel.kill")
            except InjectedFault:
                os._exit(3)  # simulated hard crash: no cleanup, no exception

        def attempt(unit=unit):
            hb.beat(slot, unit, current_rss() if track_rss else 0, ident)
            maybe_fault("parallel.block")
            tids, vals = plan.execute_unit(ctx, q_sorted, unit)
            vals = maybe_corrupt("parallel.block", vals)
            check_finite("parallel.block", vals, context="plan unit output")
            return tids, vals

        try:
            # stopwatch, not span: the elapsed time feeds the adaptive
            # deadline, and a plain span reads 0.0 with tracing off
            with stopwatch("parallel.block", unit=unit) as sp:
                (tids, vals), attempts = retry_call(
                    attempt, policy, site="parallel.block", seed=unit
                )
            if obs_on:
                REGISTRY.histogram(
                    "parallel_block_seconds", "wall time per worker block"
                ).observe(sp.elapsed)
            ok, payload = True, (tids, vals, attempts, sp.elapsed)
        except Exception as exc:  # retries exhausted or guards tripped
            # flattened to a string: multi-arg exception constructors
            # (RetryExhausted, InjectedFault) do not survive pickling
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        if handle is not None and handle.stopped:
            return  # abandoned meanwhile: the unit went back to the pool
        telemetry = worker_snapshot() if is_process else None
        post((slot, ident, unit, ok, payload, telemetry))


@dataclass
class _Worker:
    """The coordinator's record of one fleet slot."""

    slot: int
    ident: int  #: pid of a process worker, serial number of a thread worker
    proc: object  #: the ``threading.Thread`` or ``mp.Process``
    tasks: object  #: private task queue
    results: object = None  #: process workers: read end of the result pipe
    queued: deque = field(default_factory=deque)  #: units sent, head running
    head_since: float = 0.0  #: when ``queued[0]`` became the running unit
    stopped: bool = False  #: thread workers: exit at the next check


def run_fleet(
    kind: str,
    plan,
    ctx: dict,
    q_sorted: np.ndarray,
    n_workers: int,
    policy,
    sup: Supervisor,
    results: dict,
    recovery: dict,
) -> None:
    """Run a plan's pending units on a supervised fleet of ``kind``
    (``"thread"`` or ``"process"``) workers.

    Fills ``results`` (``{unit: (tids, vals)}``) in place; raises
    :class:`BackendDegraded` when this rung's circuit breaker trips,
    with every completed result kept so the next rung only runs the
    rest.

    One dispatch loop serves both kinds.  Behind short units each
    worker holds up to ``_QUEUE_DEPTH`` units on a private queue, so it
    never idles while the coordinator catches up; long units (and the
    first ones, before any duration is known) go out one at a time, and
    the depth shrinks as the pool drains, so heavy units and the tail
    still spread over every worker.  The coordinator's
    bounded wait for results doubles as the watchdog tick: a running
    unit whose last heartbeat is older than the deadline gets its
    worker replaced — a process is SIGKILLed and reaped, a thread is
    abandoned to the :func:`abandoned_threads` ledger (a hung kernel
    cannot be interrupted from Python).  The running unit takes a
    strike toward quarantine; the units queued behind it go back to the
    pool without one.
    """
    cfg = sup.cfg
    is_process = kind == "process"
    n_units = plan.n_units
    pending: deque = deque(i for i in range(n_units) if i not in results)
    deaths0, failures0 = sup.worker_deaths, sup.total_failures()
    segments = []
    slots: list[_Worker] = []
    hb = HeartbeatTable(n_workers, shared=is_process)
    thread_idents = itertools.count(1)  #: unique within this run's table
    plan_shed_exhausted = False
    last_elapsed = None  #: duration of the latest completed unit

    def share(arr: np.ndarray) -> np.ndarray:
        # tracked named segments: released in the finally below, and by
        # the atexit/SIGTERM hooks if this frame never gets to run
        shm = create_segment(arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        segments.append(shm)
        return view

    if is_process:
        import multiprocessing as mp
        from multiprocessing.connection import wait as wait_ready

        mpctx = mp.get_context("fork")
        # workers read the numeric operands zero-copy from shared memory;
        # the plan's frozen geometry travels by copy-on-write
        state = (
            plan,
            {p: tuple(None if a is None else share(a) for a in arrays)
             for p, arrays in ctx.items()},
            share(q_sorted),
            policy,
            hb,
            is_enabled(),
            cfg.memory_budget is not None,  # RSS rides the beats only if gated
        )
    else:
        done = queue_mod.SimpleQueue()
        state = (plan, ctx, q_sorted, policy, hb, is_enabled(), False)

    def spawn(slot: int) -> _Worker:
        if is_process:
            # fork inherits the state, the shm mappings and the armed
            # injector.  A private task queue and a private result pipe
            # per worker keep a worker killed mid-write from tearing a
            # channel its siblings use; sends are synchronous, so a
            # crash after one cannot tear it either
            tasks = mpctx.Queue()
            results, writer = mpctx.Pipe(duplex=False)
            proc = mpctx.Process(
                target=_worker_loop,
                args=(slot, 0, tasks, writer.send, state, None),
                daemon=True,
            )
            proc.start()
            writer.close()  # the child holds the only write end: EOF on death
            return _Worker(slot, proc.pid, proc, tasks, results)
        h = _Worker(slot, next(thread_idents), None, queue_mod.SimpleQueue())
        h.proc = threading.Thread(
            target=_worker_loop,
            args=(slot, h.ident, h.tasks, done.put, state, h),
            daemon=True,
            name=f"fleet-{slot}",
        )
        h.proc.start()
        return h

    def close_channels(h: _Worker) -> None:
        if is_process:
            try:
                h.tasks.cancel_join_thread()
                h.tasks.close()
                h.results.close()
            except Exception:
                pass

    def collect(timeout: float) -> list:
        """Results that arrive within ``timeout``, without blocking on
        a dead worker's channel."""
        if not is_process:
            try:
                msgs = [done.get(timeout=timeout)]
            except queue_mod.Empty:
                return []
            while True:
                try:
                    msgs.append(done.get_nowait())
                except queue_mod.Empty:
                    return msgs
        msgs = []
        for conn in wait_ready([h.results for h in slots], timeout):
            try:
                while conn.poll():
                    msgs.append(conn.recv())
            except (EOFError, OSError):
                pass  # the writer died, maybe mid-send: the watchdog replaces it
        return msgs

    def kill(h: _Worker, unit: int) -> None:
        if is_process:
            h.proc.kill()  # reaped by the join in replace()
            return
        # a thread cannot be killed: stop waiting for it, rename and
        # ledger it; it exits without reporting once the stuck call returns
        h.stopped = True
        h.proc.name = f"abandoned-parallel.block-u{unit}"
        with _ABANDONED_LOCK:
            _ABANDONED[:] = [t for t in _ABANDONED if t.is_alive()]
            _ABANDONED.append(h.proc)
        emit("thread_abandoned", slot=h.slot, unit=unit)

    def fail_unit(unit: int) -> None:
        """One failure strike; quarantine-complete or re-dispatch."""
        if sup.record_failure(unit):
            tids, vals, kind = _complete_on_coordinator(plan, ctx, q_sorted, unit)
            sup.on_quarantine(unit, kind)
            results[unit] = (tids, vals)
            recovery["fallbacks"] += 1
        elif unit not in results:
            pending.appendleft(unit)

    def check_breaker() -> None:
        # rung-relative counts: each rung starts with a fresh breaker
        if sup.tripped:
            return
        if sup.worker_deaths - deaths0 >= cfg.max_worker_deaths:
            sup.trip("worker_mortality")
        elif sup.total_failures() - failures0 >= cfg.max_unit_failures:
            sup.trip("unit_failures")

    def replace(h: _Worker, struck: bool) -> None:
        """Swap in a fresh worker; the lost head unit takes a strike
        (when ``struck``), the units queued behind it do not."""
        lost = list(h.queued)
        if is_process:
            try:
                h.proc.join(timeout=5.0)
            except Exception:
                pass
        close_channels(h)
        slots[h.slot] = spawn(h.slot)
        pending.extendleft(reversed(lost[1:]))
        if struck and lost:
            fail_unit(lost[0])
        check_breaker()

    def receive(msg) -> None:
        nonlocal last_elapsed
        slot, ident, unit, ok, payload, telemetry = msg
        merge_worker_snapshot(telemetry)
        h = slots[slot]
        if h.ident != ident:
            return  # from a replaced worker: its units were already re-pooled
        if h.queued and h.queued[0] == unit:
            h.queued.popleft()
            h.head_since = time.monotonic()
        if unit in results:
            return
        if ok:
            tids, vals, attempts, elapsed = payload
            results[unit] = (tids, vals)
            recovery["retries"] += attempts - 1
            sup.record_duration(elapsed)
            last_elapsed = elapsed
        else:
            # in-worker retries exhausted or guards tripped
            recovery["retries"] += policy.max_retries
            fail_unit(unit)
            check_breaker()

    def scan(now: float, deadline_s: float) -> None:
        """Watchdog: hangs, silent deaths, worker memory."""
        snap = hb.read()
        for h in list(slots):
            alive = h.proc.is_alive()
            if not h.queued:
                if not alive:  # died between units (e.g. idle SIGKILL)
                    sup.on_worker_death(h.slot, None)
                    replace(h, struck=False)
                continue
            unit = h.queued[0]
            ident, _, beat_ts, rss = snap[h.slot]
            # any beat of this worker proves it alive, even one for the
            # next queued unit while the head's result is still in flight
            mine = int(ident) == h.ident
            last = max(h.head_since, beat_ts) if mine else h.head_since
            if not alive:
                sup.on_worker_death(h.slot, unit)
                replace(h, struck=True)
                continue
            waited = now - last
            if waited > deadline_s:
                emit(
                    "supervisor.heartbeat_miss", slot=h.slot, unit=unit,
                    waited_s=waited, deadline_s=deadline_s,
                )
                kill(h, unit)
                sup.on_reap(h.slot, unit, waited, deadline_s, "hang")
                replace(h, struck=True)
            elif cfg.memory_budget and mine and rss > cfg.memory_budget:
                kill(h, unit)
                sup.on_reap(h.slot, unit, waited, deadline_s, "oom")
                replace(h, struck=True)

    def relieve_memory() -> None:
        """Parent over budget: shed plan memory stage by stage, and trip
        the breaker only once nothing is left to shed."""
        nonlocal plan_shed_exhausted
        if not cfg.memory_budget or sup.tripped:
            return
        rss = current_rss()
        while rss > cfg.shed_fraction * cfg.memory_budget and not plan_shed_exhausted:
            freed = plan.shed_memory()
            if freed > 0:
                emit(
                    "supervisor.memory_shed", freed_bytes=int(freed), rss=int(rss),
                    budget=int(cfg.memory_budget),
                )
                rss = current_rss()
            else:
                plan_shed_exhausted = True
        if rss > cfg.memory_budget and plan_shed_exhausted:
            sup.trip("memory_pressure")

    try:
        slots.extend(spawn(s) for s in range(n_workers))
        while len(results) < n_units:
            relieve_memory()
            if sup.tripped:
                raise BackendDegraded(kind, sup.trip_reason or "breaker")
            # queue ahead only behind short units, where it hides the
            # coordinator's round trip; long units go out one at a time
            # to whichever worker frees first, which balances the few
            # heavy far units of a plan the way a plain pool does
            short = last_elapsed is not None and last_elapsed < _SHORT_UNIT_S
            depth = min(_QUEUE_DEPTH if short else 1, 1 + len(pending) // n_workers)
            for h in slots:
                while pending and len(h.queued) < depth:
                    unit = pending.popleft()
                    if unit in results:
                        continue
                    if not h.queued:
                        h.head_since = time.monotonic()
                    h.queued.append(unit)
                    h.tasks.put(unit)
            # collect: the bounded wait doubles as the watchdog tick,
            # capped at half the deadline so a hang is reaped within 2x it
            deadline_s = sup.deadline()
            for msg in collect(min(cfg.heartbeat_interval, deadline_s / 2.0)):
                receive(msg)
            scan(time.monotonic(), deadline_s)
    finally:
        for h in slots:
            h.stopped = True
            try:
                h.tasks.put(None)
            except Exception:
                pass
        for h in slots:
            try:
                if is_process:
                    if h.queued:  # rung abandoned: its units run one rung down
                        h.proc.kill()
                    h.proc.join(timeout=1.0)
                    if h.proc.is_alive():
                        h.proc.kill()
                        h.proc.join(timeout=5.0)
                elif not h.queued:
                    h.proc.join(timeout=1.0)  # idle: exits at once
            except Exception:
                pass
            close_channels(h)
        hb.close()
        for shm in segments:
            release_segment(shm)


def run_plan_units(
    plan,
    ctx: dict,
    q_sorted: np.ndarray,
    n_workers: int,
    policy,
    sup: Supervisor,
    backend: str,
    recovery: dict,
) -> dict:
    """Every unit of ``plan`` down the degradation ladder; returns
    ``{unit: (tids, vals)}``.

    ``backend="process"`` starts on a process fleet, ``"thread"`` on a
    thread fleet; each breaker trip hands the remaining units one rung
    down (``process -> thread -> serial``), and the serial floor
    completes them on the coordinating thread with fault injection
    suppressed.  ``recovery["fallbacks"]`` counts every unit not
    completed by a worker of the requested backend: quarantined ones
    and those a lower rung completed.  Every rung runs identical
    arithmetic, so the merged result is bitwise equal to serial
    whichever rungs ran (quarantined units that needed direct summation
    excepted, and those stay within the Theorem-1 ledger).
    """
    results: dict[int, tuple] = {}
    rungs = ("process", "thread") if backend == "process" else ("thread",)
    for rung, (kind, lower) in enumerate(zip(rungs, rungs[1:] + ("serial",))):
        by_workers = len(results) - sup.n_quarantines
        try:
            run_fleet(
                kind, plan, ctx, q_sorted, n_workers, policy, sup, results, recovery
            )
            return results
        except BackendDegraded as deg:
            sup.on_degrade(kind, lower, deg.reason, plan.n_units - len(results))
        finally:
            if rung:  # units a lower rung's workers completed fell back too
                recovery["fallbacks"] += len(results) - sup.n_quarantines - by_workers
    for unit in range(plan.n_units):
        if unit not in results:
            tids, vals, _ = _complete_on_coordinator(plan, ctx, q_sorted, unit)
            emit("fallback", site="parallel.block", kind="plan_unit", unit=unit)
            results[unit] = (tids, vals)
            recovery["fallbacks"] += 1
    return results
