"""Supervised execution: the worker fleet every parallel plan run uses.

:func:`run_plan_units` is the one executor of compiled-plan work units
(see :mod:`repro.parallel.executors`).  It runs them on a fleet of
worker threads under one coordinator loop, :func:`run_fleet`, which
guards against every failure class a long run meets:

* **Errors and corrupt output** — each worker retries a failing unit
  under the :class:`~repro.robust.RetryPolicy`; a unit that exhausts its
  retries takes a strike and goes back to the pool.
* **Heartbeat table** — fixed per-worker slots of ``[ident, unit,
  CLOCK_MONOTONIC]`` written at every attempt and read lock-free by the
  coordinator.
* **Hang watchdog** — the coordinator's bounded wait for results doubles
  as the watchdog: every ``heartbeat_interval`` it compares each running
  unit's last stamp against a deadline (fixed via ``unit_deadline``, or
  adaptive ``max(min_deadline, multiplier · observed-per-unit-p95)``).
  An overdue thread is abandoned to a ledger (:func:`abandoned_threads`),
  since a hung kernel cannot be interrupted from Python, and a fresh
  worker takes the slot.  The scan period is capped at half the
  deadline, so a hang is always replaced within 2x the deadline.
* **Poison-unit quarantine** — a unit that fails or hangs
  ``quarantine_after`` times is quarantined: the coordinator completes
  it with fault injection suppressed (identical arithmetic — bitwise
  equal to serial), falling back to exact per-pair direct summation
  (``plan.execute_unit_direct``) if even the suppressed redo fails.
  Interaction-count stats are frozen at compile time, so quarantine
  never perturbs them.
* **Memory breaker** — when the process's RSS crosses
  ``shed_fraction · memory_budget`` the coordinator calls the compiled
  plan's :meth:`shed_memory` (drop-to-spill, bitwise the resident
  potentials); only when there is nothing left to shed and the budget
  is still exceeded does the breaker trip.
* **Circuit breaker / degradation ladder** — ``max_worker_deaths`` lost
  workers or ``max_unit_failures`` unit failures, or exhausted memory
  shedding, trip the breaker: :class:`BackendDegraded` is raised with
  partial results kept, and the remaining units run on the serial floor
  (``thread -> serial``).

Every supervision event is one :func:`repro.obs.emit` call (a
``supervisor_*`` counter, a journal line, a trace event), so ``python
-m repro profile`` shows a health report of what a run absorbed.
Every worker has its own task queue, and all workers post results to
one shared queue, so a worker abandoned mid-unit cannot block the rest.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from .faults import maybe_corrupt, maybe_fault, suppress_faults
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
# heartbeat table
# ---------------------------------------------------------------------------
_IDLE = -1.0  #: unit field of a slot with no unit in flight


class HeartbeatTable:
    """Fixed-slot worker-to-coordinator heartbeat channel.

    Layout: float64 ``(n_slots, 3)`` rows of ``[ident, unit,
    monotonic_ts]``.  Exactly one writer per slot (the worker owning it)
    and one reader (the coordinator's watchdog); the timestamp is written
    last, and the watchdog tolerates torn reads because it compares
    timestamps with at least a full heartbeat interval of slack and
    cross-checks the ident field against its own bookkeeping.
    """

    FIELDS = 3

    def __init__(self, n_slots: int):
        self.n_slots = int(n_slots)
        self.table = np.zeros((self.n_slots, self.FIELDS), dtype=np.float64)
        self.table[:, 1] = _IDLE

    def beat(self, slot: int, unit: int | float, ident: int) -> None:
        """Publish one heartbeat for ``slot`` (called by the worker)."""
        row = self.table[slot]
        row[0] = float(ident)
        row[1] = float(unit)
        row[2] = time.monotonic()  # ts last: fresh ts implies fresh fields

    def clear(self, slot: int) -> None:
        self.table[slot, 1] = _IDLE

    def read(self) -> np.ndarray:
        """A snapshot copy of the table (coordinator side)."""
        return np.array(self.table, copy=True)


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
    max_worker_deaths: int = 4  #: breaker: workers reaped or dead
    max_unit_failures: int = 16  #: breaker: unit failures
    memory_budget: int | None = None  #: the process's RSS budget (bytes)
    shed_fraction: float = 0.8  #: plan memory is shed at this x budget

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
    objects, so nested entry points see one consistent config.
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
    """The circuit breaker tripped: abandon the thread fleet and complete
    the remaining units on the serial floor."""

    def __init__(self, reason: str):
        super().__init__(f"thread fleet degraded: {reason}")
        self.reason = reason


# ---------------------------------------------------------------------------
# coordinator-side bookkeeping + event emission
# ---------------------------------------------------------------------------
_DURATION_WINDOW = 256  #: recent per-unit durations kept for the p95
_DEADLINE_REFRESH = 16  #: samples between adaptive-deadline recomputes


class Supervisor:
    """Supervision state of one parallel run.

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
    def on_reap(self, slot: int, unit: int, waited: float, deadline: float) -> None:
        self.n_reaps += 1
        self.worker_deaths += 1
        emit(
            "supervisor.reap", slot=slot, unit=unit, waited_s=waited,
            deadline_s=deadline,
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
# the worker fleet: one supervised dispatch loop
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


def _worker_loop(h, post, state) -> None:
    """Body of fleet worker ``h``.

    Takes unit ids off its private queue (``None`` stops it) and hands
    ``(slot, ident, unit, ok, payload)`` to ``post``, the fleet's shared
    result queue.  Every attempt first publishes a heartbeat, so a hang
    inside an attempt leaves a stale stamp — exactly what the
    coordinator's watchdog looks for.  A worker the coordinator has
    abandoned (``h.stopped``) exits without reporting.
    """
    plan, ctx, q_sorted, policy, hb, obs_on = state
    while True:
        unit = h.tasks.get()
        if unit is None or h.stopped:
            return

        def attempt(unit=unit):
            hb.beat(h.slot, unit, h.ident)
            maybe_fault("parallel.block")
            if h.stopped:
                return None  # abandoned in the fault site: no work, no retry
            tids, vals = plan.execute_unit(ctx, q_sorted, unit)
            vals = maybe_corrupt("parallel.block", vals)
            check_finite("parallel.block", vals, context="plan unit output")
            return tids, vals

        try:
            # stopwatch, not span: the elapsed time feeds the adaptive
            # deadline, and a plain span reads 0.0 with tracing off
            with stopwatch("parallel.block", unit=unit) as sp:
                out, attempts = retry_call(
                    attempt, policy, site="parallel.block", seed=unit
                )
            ok = True
        except Exception as exc:  # retries exhausted or guards tripped
            ok, out = False, f"{type(exc).__name__}: {exc}"
        if h.stopped:
            return  # abandoned meanwhile: the unit went back to the pool
        if ok:
            if obs_on:  # only units this worker reports
                REGISTRY.histogram(
                    "parallel_block_seconds", "wall time per worker block"
                ).observe(sp.elapsed)
            out = (*out, attempts, sp.elapsed)
        post((h.slot, h.ident, unit, ok, out))


@dataclass
class _Worker:
    """The coordinator's record of one fleet slot."""

    slot: int
    ident: int  #: serial number, unique within one run's heartbeat table
    tasks: queue_mod.SimpleQueue = field(default_factory=queue_mod.SimpleQueue)
    thread: threading.Thread | None = None
    queued: deque = field(default_factory=deque)  #: units sent, head running
    head_since: float = 0.0  #: when ``queued[0]`` became the running unit
    stopped: bool = False  #: exit at the next check


def run_fleet(
    plan,
    ctx: dict,
    q_sorted: np.ndarray,
    n_workers: int,
    policy,
    sup: Supervisor,
    results: dict,
    recovery: dict,
) -> None:
    """Run a plan's pending units on a supervised fleet of worker threads.

    Fills ``results`` (``{unit: (tids, vals)}``) in place; raises
    :class:`BackendDegraded` when the circuit breaker trips, with every
    completed result kept so the serial floor only runs the rest.

    Behind short units each worker holds up to ``_QUEUE_DEPTH`` units on
    a private queue, so it never idles while the coordinator catches up;
    long units (and the first ones, before any duration is known) go out
    one at a time, and the depth shrinks as the pool drains, so heavy
    units and the tail still spread over every worker.  The
    coordinator's bounded wait for results doubles as the watchdog tick:
    a running unit whose last heartbeat is older than the deadline gets
    its worker abandoned to the :func:`abandoned_threads` ledger (a hung
    kernel cannot be interrupted from Python) and replaced.  The running
    unit takes a strike toward quarantine; the units queued behind it go
    back to the pool without one.
    """
    cfg = sup.cfg
    n_units = plan.n_units
    pending: deque = deque(i for i in range(n_units) if i not in results)
    slots: list[_Worker] = []
    hb = HeartbeatTable(n_workers)
    idents = itertools.count(1)
    done = queue_mod.SimpleQueue()
    state = (plan, ctx, q_sorted, policy, hb, is_enabled())
    plan_shed_exhausted = False
    last_elapsed = None  #: duration of the latest completed unit

    def spawn(slot: int) -> _Worker:
        h = _Worker(slot, next(idents))
        h.thread = threading.Thread(
            target=_worker_loop, args=(h, done.put, state), daemon=True,
            name=f"fleet-{slot}",
        )
        h.thread.start()
        return h

    def collect(timeout: float) -> list:
        """Results that arrive within ``timeout``."""
        try:
            msgs = [done.get(timeout=timeout)]
        except queue_mod.Empty:
            return []
        while True:
            try:
                msgs.append(done.get_nowait())
            except queue_mod.Empty:
                return msgs

    def abandon(h: _Worker, unit: int) -> None:
        # a thread cannot be killed: stop waiting for it, rename and
        # ledger it; it exits without reporting once the stuck call returns
        h.stopped = True
        h.thread.name = f"abandoned-parallel.block-u{unit}"
        with _ABANDONED_LOCK:
            _ABANDONED[:] = [t for t in _ABANDONED if t.is_alive()]
            _ABANDONED.append(h.thread)
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
        if sup.tripped:
            return
        if sup.worker_deaths >= cfg.max_worker_deaths:
            sup.trip("worker_mortality")
        elif sup.total_failures() >= cfg.max_unit_failures:
            sup.trip("unit_failures")

    def replace(h: _Worker, struck: bool) -> None:
        """Swap in a fresh worker; the lost head unit takes a strike
        (when ``struck``), the units queued behind it do not."""
        lost = list(h.queued)
        slots[h.slot] = spawn(h.slot)
        pending.extendleft(reversed(lost[1:]))
        if struck and lost:
            fail_unit(lost[0])
        check_breaker()

    def receive(msg) -> None:
        nonlocal last_elapsed
        slot, ident, unit, ok, payload = msg
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
        """Watchdog: hangs and silent deaths."""
        snap = hb.read()
        for h in list(slots):
            alive = h.thread.is_alive()
            if not h.queued:
                if not alive:  # died between units
                    sup.on_worker_death(h.slot, None)
                    replace(h, struck=False)
                continue
            unit = h.queued[0]
            ident, _, beat_ts = snap[h.slot]
            # any beat of this worker proves it alive, even one for the
            # next queued unit while the head's result is still in flight
            last = max(h.head_since, beat_ts) if int(ident) == h.ident else h.head_since
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
                abandon(h, unit)
                sup.on_reap(h.slot, unit, waited, deadline_s)
                replace(h, struck=True)

    def relieve_memory() -> None:
        """Over budget: shed plan memory, and trip the breaker only once
        nothing is left to shed."""
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
        next_scan = time.monotonic()
        while len(results) < n_units:
            relieve_memory()
            if sup.tripped:
                raise BackendDegraded(sup.trip_reason or "breaker")
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
            # collect until the next watchdog tick; ticks come at most
            # half a deadline apart, so a hang is reaped within 2x it,
            # and results arriving in between cost no scan
            for msg in collect(max(0.0, next_scan - time.monotonic())):
                receive(msg)
            now = time.monotonic()
            if now >= next_scan:
                deadline_s = sup.deadline()
                scan(now, deadline_s)
                next_scan = now + min(cfg.heartbeat_interval, deadline_s / 2.0)
    finally:
        for h in slots:
            h.stopped = True
            h.tasks.put(None)
        for h in slots:
            if not h.queued:
                h.thread.join(timeout=1.0)  # idle: exits at once


def run_plan_units(
    plan,
    ctx: dict,
    q_sorted: np.ndarray,
    n_workers: int,
    policy,
    sup: Supervisor,
    recovery: dict,
) -> dict:
    """Every unit of ``plan`` down the degradation ladder; returns
    ``{unit: (tids, vals)}``.

    The units start on the thread fleet; a breaker trip hands the
    remaining ones to the serial floor, which completes them on the
    coordinating thread with fault injection suppressed.
    ``recovery["fallbacks"]`` counts every unit not completed by a fleet
    worker: quarantined ones and those the serial floor completed.  Both
    rungs run identical arithmetic, so the merged result is bitwise
    equal to serial whichever rungs ran (quarantined units that needed
    direct summation excepted, and those stay within the Theorem-1
    ledger).
    """
    results: dict[int, tuple] = {}
    try:
        run_fleet(plan, ctx, q_sorted, n_workers, policy, sup, results, recovery)
        return results
    except BackendDegraded as deg:
        sup.on_degrade("thread", "serial", deg.reason, plan.n_units - len(results))
    for unit in range(plan.n_units):
        if unit not in results:
            tids, vals, _ = _complete_on_coordinator(plan, ctx, q_sorted, unit)
            emit("fallback", site="parallel.block", kind="plan_unit", unit=unit)
            results[unit] = (tids, vals)
            recovery["fallbacks"] += 1
    return results
