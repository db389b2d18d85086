"""Supervised execution: heartbeats, watchdogs, quarantine, ladder.

Covers the supervision layer (repro.robust.supervisor) end to end: the
heartbeat table, adaptive hang deadlines, hang reaps on the thread
fleet, poison-unit quarantine, the memory breaker with plan shedding,
the thread -> serial degradation ladder, the abandoned-thread ledger,
and the CLI/environment wiring.
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.data.distributions import make_distribution, unit_charges
from repro.direct import direct_potential
from repro.obs import REGISTRY, journal, tracing
from repro.obs.events import validate_event
from repro.obs.journal import Journal, read_journal
from repro.parallel import evaluate_plan_parallel
from repro.parallel.executors import scatter_add
from repro.robust import (
    FaultInjector,
    RetryPolicy,
    abandoned_threads,
    parse_fault_spec,
    set_injector,
)
from repro.robust import supervisor as sup_mod
from repro.robust.supervisor import (
    HeartbeatTable,
    Supervisor,
    SupervisorConfig,
    default_config,
)

#: millisecond backoff so failure paths stay fast under test
FAST = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.001)


@pytest.fixture(autouse=True)
def clean_obs():
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    set_injector(None)
    journal.set_journal(None)
    yield
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    set_injector(None)
    journal.set_journal(None)


def small_plan(n=900, n_units=4, leaf_size=96, seed=7):
    """A cluster plan with few, chunky units: hang/reap tests need every
    unit to matter, not thousands of sub-ms near blocks."""
    pts = make_distribution("uniform", n, seed=seed)
    q = unit_charges(n, seed=seed + 1, signed=True)
    tc = Treecode(
        pts, q, degree_policy=FixedDegree(3), alpha=0.6, leaf_size=leaf_size
    )
    return tc.compile_plan(mode="cluster", n_units=n_units), q


def supervisor_counters():
    return {
        k: v
        for k, v in REGISTRY.to_dict()["counters"].items()
        if k.startswith("supervisor_")
    }


# ---------------------------------------------------------------------------
# heartbeat table
# ---------------------------------------------------------------------------
class TestHeartbeatTable:
    def test_beat_read_clear(self):
        hb = HeartbeatTable(2)
        hb.beat(0, 5, ident=7)
        snap = hb.read()
        assert int(snap[0, 0]) == 7
        assert int(snap[0, 1]) == 5
        assert snap[0, 2] > 0.0  # monotonic timestamp published last
        assert int(snap[1, 1]) == -1  # untouched slot reads idle
        hb.clear(0)
        assert int(hb.read()[0, 1]) == -1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval": 0.0},
            {"unit_deadline": -1.0},
            {"quarantine_after": 0},
            {"memory_budget": 0},
            {"shed_fraction": 0.0},
            {"shed_fraction": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)

    def test_default_config_defaults_without_env(self, monkeypatch):
        for key in (
            sup_mod.ENV_HEARTBEAT_INTERVAL,
            sup_mod.ENV_UNIT_DEADLINE,
            sup_mod.ENV_MEMORY_BUDGET,
        ):
            monkeypatch.delenv(key, raising=False)
        assert default_config() == SupervisorConfig()

    def test_default_config_from_env(self, monkeypatch):
        monkeypatch.setenv(sup_mod.ENV_HEARTBEAT_INTERVAL, "0.1")
        monkeypatch.setenv(sup_mod.ENV_UNIT_DEADLINE, "2.5")
        monkeypatch.setenv(sup_mod.ENV_MEMORY_BUDGET, "512")  # MiB
        cfg = default_config()
        assert cfg.heartbeat_interval == 0.1
        assert cfg.unit_deadline == 2.5
        assert cfg.memory_budget == 512 * 1024 * 1024


# ---------------------------------------------------------------------------
# adaptive deadline + failure accounting
# ---------------------------------------------------------------------------
class TestSupervisorState:
    def test_fixed_deadline_wins(self):
        sup = Supervisor(SupervisorConfig(unit_deadline=1.5))
        for _ in range(50):
            sup.record_duration(10.0)
        assert sup.deadline() == 1.5

    def test_warmup_deadline_and_slowest_floor(self):
        sup = Supervisor(SupervisorConfig())
        assert sup.deadline() == SupervisorConfig().warmup_deadline
        sup.record_duration(6.0)  # one slow unit during warmup
        assert sup.deadline() == 12.0  # 2 x max observed beats the warmup

    def test_p95_deadline_with_heterogeneity_floor(self):
        sup = Supervisor(SupervisorConfig())
        for _ in range(100):
            sup.record_duration(0.01)
        # homogeneous: p95 term is tiny, the floor is min_deadline
        assert sup.deadline() == SupervisorConfig().min_deadline
        # one heavy far unit among thousands of near blocks must raise
        # the deadline to 2 x its duration, or it would be falsely
        # reaped on every dispatch
        sup.record_duration(1.0)
        assert sup.deadline() == 2.0

    def test_record_failure_quarantines_exactly_once(self):
        sup = Supervisor(SupervisorConfig(quarantine_after=2))
        assert sup.record_failure(7) is False
        assert sup.record_failure(7) is True  # crosses the threshold
        assert sup.record_failure(7) is False  # but only once
        assert sup.failures_of(7) == 3
        assert sup.total_failures() == 3
        assert sup.quarantined == {7}


# ---------------------------------------------------------------------------
# clean runs: supervision must be invisible
# ---------------------------------------------------------------------------
class TestCleanRuns:
    def test_supervised_thread_run_bitwise_and_eventless(self):
        plan, q = small_plan()
        sup = evaluate_plan_parallel(
            plan, q, n_threads=2, supervise=SupervisorConfig()
        )
        np.testing.assert_array_equal(sup.potential, plan.execute(q).potential)
        assert sup.n_quarantined == sup.n_reaped == sup.n_degradations == 0
        assert supervisor_counters() == {}  # no events on a healthy run

    def test_supervise_takes_a_config_only(self):
        plan, q = small_plan()
        with pytest.raises(TypeError, match="SupervisorConfig"):
            evaluate_plan_parallel(plan, q, supervise=True)


# ---------------------------------------------------------------------------
# dispatch: heavy leading units, oversubscribed thread fleets
# ---------------------------------------------------------------------------
class _SleepPlan:
    """A stand-in plan whose first ``n_heavy`` units sleep ``heavy_s``
    and whose others return at once — a cluster plan's shape: a few
    heavy far units ahead of many light near blocks."""

    def __init__(self, n_units, n_heavy, heavy_s):
        self.n_units, self.n_heavy, self.heavy_s = n_units, n_heavy, heavy_s

    def execute_unit(self, ctx, q_sorted, i):
        if i < self.n_heavy:
            time.sleep(self.heavy_s)
        return np.array([i]), np.array([float(i)])


def test_heavy_leading_units_are_not_reaped_as_hangs():
    """Until a short unit has completed, each worker holds one unit, so
    the heavy leading units run one per worker and light units cannot
    teach the adaptive deadline a tiny p95 while a heavy one waits in a
    queue behind them."""
    plan = _SleepPlan(n_units=64, n_heavy=4, heavy_s=0.3)
    sup = Supervisor(
        SupervisorConfig(min_deadline=0.05, warmup_samples=2, quarantine_after=1)
    )
    results, recovery = {}, {"retries": 0, "fallbacks": 0}
    sup_mod.run_fleet(plan, {}, np.zeros(1), 4, FAST, sup, results, recovery)
    assert sorted(results) == list(range(64))
    assert sup.n_reaps == 0 and sup.n_quarantines == 0


def test_oversubscribed_thread_fleet_stress():
    """More thread workers than cores with a tiny switch interval: a
    lost or doubled unit in the coordinator's bookkeeping would break
    the bitwise merge or the retry count."""
    plan, q = small_plan(n=1200, n_units=16, leaf_size=24)
    ref = plan.execute(q).potential
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=9))
        res = evaluate_plan_parallel(plan, q, n_threads=8, retry=FAST)
    finally:
        set_injector(None)
        sys.setswitchinterval(previous)
    np.testing.assert_array_equal(res.potential, ref)
    assert res.n_blocks == plan.n_units
    assert res.n_retries == REGISTRY.to_dict()["counters"].get("block_retries", 0) > 0


# ---------------------------------------------------------------------------
# bitwise results: plan mode x charge shape x fault, on the thread fleet
# ---------------------------------------------------------------------------
MATRIX_FAULTS = {
    "clean": None,
    "block_error": "block_error:0.3",
    "block_nan": "block_nan:0.3",
    "block_hang": "block_hang:0.2:0.6",
}


@pytest.mark.parametrize("fault", list(MATRIX_FAULTS))
@pytest.mark.parametrize("mode", ["target", "cluster"])
@pytest.mark.parametrize("fleet", ["thread"])  # the one fleet, named in the ids
def test_bitwise_under_faults(fleet, mode, fault):
    """Retries, redispatches, reaps, quarantines and the serial floor all
    rerun identical arithmetic, so every run equals ``plan.execute``
    bitwise."""
    n = 600
    pts = make_distribution("uniform", n, seed=21)
    q = unit_charges(n, seed=22, signed=True)
    plan = Treecode(
        pts, q, degree_policy=FixedDegree(3), alpha=0.6, leaf_size=48
    ).compile_plan(mode=mode, n_units=4)
    batch = np.random.default_rng(23).standard_normal((n, 8))
    for charges in (q, q[:, None], batch):
        ref = plan.execute(charges).potential
        spec = MATRIX_FAULTS[fault]
        set_injector(FaultInjector(parse_fault_spec(spec), seed=4) if spec else None)
        res = evaluate_plan_parallel(
            plan,
            charges,
            n_threads=2,
            retry=FAST,
            supervise=SupervisorConfig(unit_deadline=0.25),
        )
        set_injector(None)
        assert res.potential.shape == ref.shape
        np.testing.assert_array_equal(res.potential, ref)


# ---------------------------------------------------------------------------
# hang reaping, quarantine and the breaker (thread fleet)
# ---------------------------------------------------------------------------
def _journaled_run(jpath, plan, q, spec, seed, **cfg):
    """One journaled, fault-injected ``evaluate_plan_parallel`` run."""
    set_injector(FaultInjector(parse_fault_spec(spec), seed=seed))
    try:
        with Journal(str(jpath)) as j:
            journal.set_journal(j)
            return evaluate_plan_parallel(
                plan, q, n_threads=2, retry=FAST, supervise=SupervisorConfig(**cfg)
            )
    finally:
        journal.set_journal(None)
        set_injector(None)


class TestHangReaping:
    def test_hangs_reaped_within_twice_deadline(self, tmp_path):
        plan, q = small_plan()
        serial = plan.execute(q).potential
        deadline = 0.4
        jpath = tmp_path / "run.jsonl"
        # 15% of the 68 units sleep far past the deadline (~10 expected
        # hangs; the chance of a hang-free run is ~1e-5)
        res = _journaled_run(
            jpath, plan, q, "block_hang:0.15:5", 2,
            unit_deadline=deadline,
            quarantine_after=1,
            max_worker_deaths=10_000,  # keep the ladder out of this test
        )
        np.testing.assert_array_equal(res.potential, serial)
        assert res.n_reaped >= 1
        assert res.n_quarantined >= 1
        events = read_journal(str(jpath))
        reaps = [e for e in events if e["event"] == "supervisor.reap"]
        assert reaps, "reaps must be journaled"
        for e in reaps:
            assert validate_event(e)
            # the watchdog scan period is capped at deadline/2, so a
            # silent worker is reaped within 2x the deadline
            assert e["data"]["waited_s"] <= 2.0 * e["data"]["deadline_s"]
        counters = supervisor_counters()
        assert counters.get("supervisor_reaps", 0) == res.n_reaped == len(reaps)
        quarantines = [e for e in events if e["event"] == "supervisor.quarantine"]
        assert counters.get("supervisor_quarantines", 0) == res.n_quarantined
        assert len(quarantines) == res.n_quarantined

    def test_worker_mortality_degrades_down_the_ladder(self, tmp_path):
        plan, q = small_plan()
        serial = plan.execute(q).potential
        jpath = tmp_path / "run.jsonl"
        # every reaped (abandoned) worker counts as a death: two trip
        # the breaker, and the serial floor completes the rest
        res = _journaled_run(
            jpath, plan, q, "block_hang:0.6:2", 5,
            unit_deadline=0.2, quarantine_after=100, max_worker_deaths=2,
        )
        np.testing.assert_array_equal(res.potential, serial)
        assert res.n_degradations == 1
        events = read_journal(str(jpath))
        trips = [e for e in events if e["event"] == "supervisor.breaker_trip"]
        degraded = [e for e in events if e["event"] == "supervisor.degraded"]
        assert trips and trips[0]["data"]["reason"] == "worker_mortality"
        assert degraded and degraded[0]["data"]["frm"] == "thread"
        assert degraded[0]["data"]["to"] == "serial"

    def test_unit_failures_degrade_to_serial(self, tmp_path):
        """``max_unit_failures`` failed units trip the breaker; the serial
        floor completes every unit left, bitwise, and the journal agrees
        with the counters line for line."""
        plan, q = small_plan()
        serial = plan.execute(q).potential
        jpath = tmp_path / "run.jsonl"
        res = _journaled_run(
            jpath, plan, q, "block_error:1.0", 0,
            quarantine_after=100, max_unit_failures=3,
        )
        np.testing.assert_array_equal(res.potential, serial)
        assert res.n_degradations == 1 and res.n_quarantined == 0
        assert res.n_fallbacks == res.n_blocks  # no worker completed a unit
        events = read_journal(str(jpath))
        kinds = [e["event"] for e in events]
        trips = [e for e in events if e["event"] == "supervisor.breaker_trip"]
        assert [e["data"]["reason"] for e in trips] == ["unit_failures"]
        counters = REGISTRY.to_dict()["counters"]
        for event, counter in (
            ("supervisor.breaker_trip", "supervisor_breaker_trips"),
            ("supervisor.degraded", "supervisor_degradations"),
            ("fallback", "block_fallbacks"),
            ("retry", "block_retries"),
            ("fault_injected", "faults_injected"),
        ):
            assert kinds.count(event) == counters.get(counter, 0) > 0, event
        assert kinds.count("fallback") == res.n_fallbacks


# ---------------------------------------------------------------------------
# memory breaker: shed, then trip, then ladder
# ---------------------------------------------------------------------------
class TestMemoryBreaker:
    def test_parent_sheds_then_trips_then_ladder_completes(self, tmp_path):
        plan, q = small_plan(n=600, n_units=2, leaf_size=200)
        serial = plan.execute(q).potential
        jpath = tmp_path / "run.jsonl"
        with Journal(str(jpath)) as j:
            journal.set_journal(j)
            res = evaluate_plan_parallel(
                plan,
                q,
                n_threads=2,
                retry=FAST,
                # 1-byte budget: the process is over it from the start, so
                # it must shed the plan, then trip the breaker, then
                # finish on the serial floor
                supervise=SupervisorConfig(
                    unit_deadline=30.0, quarantine_after=1, memory_budget=1
                ),
            )
        journal.set_journal(None)
        # the shed drops to the spilled paths: bitwise the resident plan
        np.testing.assert_array_equal(res.potential, serial)
        events = read_journal(str(jpath))
        sheds = [e for e in events if e["event"] == "supervisor.memory_shed"]
        trips = [e for e in events if e["event"] == "supervisor.breaker_trip"]
        assert sheds, "plan memory must be shed before the breaker trips"
        assert any(e["data"]["reason"] == "memory_pressure" for e in trips)
        assert res.n_degradations >= 1
        counters = supervisor_counters()
        assert counters.get("supervisor_memory_sheds", 0) >= 1
        assert counters.get("supervisor_memory_shed_bytes", 0) > 0


# ---------------------------------------------------------------------------
# shed stages + quarantine's exact last resort
# ---------------------------------------------------------------------------
class TestShedAndDirect:
    def test_shed_memory_stages_and_accuracy(self):
        # one shed drops every precomputed operator to the spilled
        # paths, bitwise the resident ones; then nothing is left
        pts = make_distribution("uniform", 900, seed=7)
        q = unit_charges(900, seed=8, signed=True)
        plan = Treecode(
            pts, q, degree_policy=FixedDegree(3), alpha=0.6
        ).compile_plan()
        base = plan.execute(q).potential
        before = plan.memory_bytes

        freed = plan.shed_memory()
        assert freed > 0
        assert plan.memory_bytes == before - freed
        assert plan.n_far_precomputed == plan.n_near_precomputed == 0
        np.testing.assert_array_equal(plan.execute(q).potential, base)

        assert plan.shed_memory() == 0  # nothing left: breaker's cue

    @pytest.mark.parametrize("mode", ["target", "cluster"])
    def test_shed_keeps_units_and_potentials_bitwise(self, mode):
        """Both plan modes: the shed drops the near kernels (and the
        target-major far rows) to exact re-assembly, so potentials stay
        bitwise the unshed plan's and gradients within rounding; the
        work-unit layout never changes."""
        pts = make_distribution("uniform", 900, seed=7)
        q = unit_charges(900, seed=8, signed=True)
        plan = Treecode(
            pts, q, degree_policy=FixedDegree(3), alpha=0.6
        ).compile_plan(mode=mode, compute="both")
        base = plan.execute(q)
        units = plan.n_units

        assert plan.shed_memory() > 0
        assert plan._near_K is None and plan.n_near_precomputed == 0
        assert plan.n_units == units
        shed = plan.execute(q)
        np.testing.assert_array_equal(shed.potential, base.potential)
        gscale = float(np.abs(base.gradient).max())
        np.testing.assert_allclose(
            shed.gradient, base.gradient, rtol=0, atol=1e-12 * gscale
        )
        assert plan.shed_memory() == 0

    def test_execute_unit_direct_sums_to_direct_potential(self):
        plan, q = small_plan(n=400)
        pts = make_distribution("uniform", 400, seed=7)
        q_sorted = plan.sort_charges(q)
        phi = np.zeros(plan.n_targets, dtype=np.float64)
        for i in range(plan.n_units):
            tids, vals = plan.execute_unit_direct(q_sorted, i)
            scatter_add(phi, tids, vals)
        phi, _, _ = plan.finalize(phi)
        ref = direct_potential(pts, q)
        scale = max(1.0, float(np.abs(ref).max()))
        # per-pair summation everywhere: no truncation error at all
        np.testing.assert_allclose(phi, ref, rtol=0, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# acceptance scenario: n=20k under hang chaos
# ---------------------------------------------------------------------------
class TestAcceptance:
    def test_20k_chaos_run_bitwise_with_full_ledger(self, tmp_path):
        n = 20000
        pts = make_distribution("uniform", n, seed=11)
        q = unit_charges(n, seed=12, signed=True)
        tc = Treecode(
            pts, q, degree_policy=FixedDegree(2), alpha=0.7, leaf_size=1000
        )
        plan = tc.compile_plan(mode="cluster", n_units=6)  # 6 far + 68 near
        serial = plan.execute(q).potential
        jpath = tmp_path / "run.jsonl"
        tracing.enable()
        res = _journaled_run(
            jpath, plan, q, "block_hang:0.2:1,block_error:0.1", 3,
            unit_deadline=0.4, quarantine_after=1, max_worker_deaths=6,
        )

        np.testing.assert_array_equal(res.potential, serial)
        assert res.n_reaped >= 1
        assert res.n_quarantined >= 1
        assert res.n_degradations >= 1

        # ... and every supervision event is visible in all three sinks
        events = read_journal(str(jpath))
        kinds = {e["event"] for e in events}
        assert {"supervisor.reap", "supervisor.quarantine",
                "supervisor.degraded"} <= kinds
        for e in events:
            if e["event"] == "supervisor.reap":
                assert e["data"]["waited_s"] <= 2.0 * e["data"]["deadline_s"]
        counters = supervisor_counters()
        assert counters.get("supervisor_reaps", 0) >= 1
        assert counters.get("supervisor_quarantines", 0) >= 1
        assert counters.get("supervisor_degradations", 0) >= 1
        span_names = {e["name"] for e in tracing.get_tracer().events()}
        assert "supervisor.quarantine" in span_names
        assert "supervisor.degraded" in span_names


# ---------------------------------------------------------------------------
# abandoned thread workers: tracked, counted, daemonic
# ---------------------------------------------------------------------------
class TestAbandonedThreads:
    def test_timeout_tracks_daemon_thread_and_counter(self):
        plan, q = small_plan()
        before = set(abandoned_threads())
        # every attempt hangs 2 s against a 0.1 s deadline: each running
        # unit's thread worker is abandoned, the unit is quarantined
        set_injector(FaultInjector(parse_fault_spec("block_hang:1.0:2"), seed=0))
        res = evaluate_plan_parallel(
            plan,
            q,
            n_threads=2,
            retry=FAST,
            supervise=SupervisorConfig(unit_deadline=0.1, quarantine_after=1),
        )
        set_injector(None)
        np.testing.assert_array_equal(res.potential, plan.execute(q).potential)
        mine = [t for t in abandoned_threads() if t not in before]
        count = REGISTRY.to_dict()["counters"]["abandoned_threads"]
        assert mine, "the hung thread workers must be tracked"
        assert len(mine) == count == res.n_reaped
        assert all(t.daemon for t in mine)
        assert all(t.name.startswith("abandoned-parallel.block-u") for t in mine)
        # once the hung call returns, the worker exits without reporting
        # and the ledger prunes itself — no permanent thread leak
        for t in mine:
            t.join(timeout=5.0)
        assert not set(mine) & set(abandoned_threads())


# ---------------------------------------------------------------------------
# CLI / environment wiring
# ---------------------------------------------------------------------------
class TestCliWiring:
    @pytest.fixture(autouse=True)
    def _restore_env(self):
        keys = (
            sup_mod.ENV_HEARTBEAT_INTERVAL,
            sup_mod.ENV_UNIT_DEADLINE,
            sup_mod.ENV_MEMORY_BUDGET,
        )
        saved = {k: os.environ.get(k) for k in keys}
        yield
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v

    def test_supervise_flags_export_env(self):
        from repro.cli import main

        code = main(
            [
                "leaf-sweep",
                "--seed",
                "0",
                "--unit-deadline",
                "1.5",
                "--memory-budget",
                "256",
            ]
        )
        assert code == 0
        assert float(os.environ[sup_mod.ENV_UNIT_DEADLINE]) == 1.5
        assert float(os.environ[sup_mod.ENV_MEMORY_BUDGET]) == 256.0

    def test_tuning_flag_reaches_default_config(self):
        from repro.cli import main

        code = main(["leaf-sweep", "--seed", "0", "--heartbeat-interval", "0.2"])
        assert code == 0
        assert os.environ[sup_mod.ENV_HEARTBEAT_INTERVAL] == "0.2"
        assert default_config().heartbeat_interval == 0.2

    def test_invalid_tuning_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["leaf-sweep", "--seed", "0", "--unit-deadline", "-1"])

    def test_health_report_lists_supervision_counters(self):
        from repro.cli import _health_report

        report = _health_report(
            {
                "supervisor_reaps": 3,
                "supervisor_quarantines": 1,
                "other_counter": 9,
            }
        )
        assert "supervision health" in report
        assert "3" in report and "workers reaped" in report
        assert "other_counter" not in report
        assert _health_report({"plain": 1}) == ""
