"""Tests for the fault-tolerance layer: injection, retry, guards, checkpoints."""

import json

import numpy as np
import pytest

from repro import AdaptiveChargeDegree, Treecode
from repro.bem.gmres import gmres
from repro.experiments.table3 import run_table3
from repro.parallel import evaluate_plan_parallel
from repro.robust import faults as faults_mod
from repro.robust.checkpoint import Checkpoint, CheckpointMismatch, cached_step
from repro.robust.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    parse_fault_spec,
    set_injector,
    suppress_faults,
)
from repro.robust.guards import (
    BoundAccountingError,
    NumericalCorruptionError,
    check_bound_accounting,
    check_finite,
    solve_with_recovery,
)
from repro.robust.retry import RetryExhausted, RetryPolicy, retry_call
from repro.robust.supervisor import SupervisorConfig

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture
def clean_injector(injector_guard):
    set_injector(None)


# ----------------------------------------------------------------------
# Fault spec parsing and injector determinism
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_parse_basic(self):
        rules = parse_fault_spec("block_error:0.5")
        assert rules == [FaultRule(mode="block_error", rate=0.5, param=0.0)]
        assert rules[0].site == "parallel.block"
        assert rules[0].kind == "error"

    def test_parse_param_and_multiple(self):
        rules = parse_fault_spec("block_hang:0.1:0.05, coeff_nan:1.0")
        assert len(rules) == 2
        assert rules[0].param == pytest.approx(0.05)
        assert rules[1].site == "treecode.coeffs"

    @pytest.mark.parametrize(
        "bad",
        ["nosuchmode:0.5", "block_error", "block_error:1.5", "block_error:-0.1",
         "block_hang:0.5:-1"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_draws_deterministic_across_injectors(self):
        spec = parse_fault_spec("block_error:0.5")
        a = FaultInjector(spec, seed=7)
        b = FaultInjector(spec, seed=7)

        def fires(inj):
            out = []
            for _ in range(50):
                try:
                    inj.maybe_fault("parallel.block")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        seq_a, seq_b = fires(a), fires(b)
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert fires(FaultInjector(spec, seed=8)) != seq_a

    def test_suppress_faults(self, clean_injector):
        set_injector(FaultInjector(parse_fault_spec("block_error:1.0"), seed=0))
        with pytest.raises(InjectedFault):
            faults_mod.maybe_fault("parallel.block")
        with suppress_faults():
            faults_mod.maybe_fault("parallel.block")  # no raise
        x = np.ones(8)
        set_injector(FaultInjector(parse_fault_spec("block_nan:1.0"), seed=0))
        bad = faults_mod.maybe_corrupt("parallel.block", x)
        assert np.isnan(bad).any() and np.isfinite(x).all()

    def test_sites_not_armed_are_untouched(self, clean_injector):
        set_injector(FaultInjector(parse_fault_spec("block_error:1.0"), seed=0))
        faults_mod.maybe_fault("gmres.matvec")  # different site: no raise
        x = np.ones(4)
        assert faults_mod.maybe_corrupt("fmm.potential", x) is x


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return 42

        value, attempts = retry_call(flaky, FAST, site="t")
        assert value == 42 and attempts == 3

    def test_exhaustion_chains_last_error(self):
        def always():
            raise ValueError("boom")

        with pytest.raises(RetryExhausted) as ei:
            retry_call(always, FAST, site="t")
        assert ei.value.attempts == 4
        assert isinstance(ei.value.last, ValueError)
        assert isinstance(ei.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_retries=-1), dict(base_delay=-0.1), dict(base_delay=1.0, max_delay=0.5),
         dict(max_delay=-1.0)],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Parallel evaluation under injected faults (acceptance criterion)
# ----------------------------------------------------------------------


@pytest.fixture
def plan_and_serial(small_cloud):
    """A target-major plan of the small cloud, its charges, and its
    serial execution."""
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=3, alpha=0.7))
    plan = tc.compile_plan()
    return plan, q, plan.execute(q)


class TestParallelRecovery:
    """Every recovery path on the thread fleet reruns identical
    arithmetic, so each run equals the serial plan bitwise."""

    def _assert_matches_serial(self, par, serial):
        np.testing.assert_array_equal(par.potential, serial.potential)
        assert par.stats.n_pp_pairs == serial.stats.n_pp_pairs
        assert par.stats.n_pc_interactions == serial.stats.n_pc_interactions

    def _run(self, plan, q, spec, seed, **cfg):
        set_injector(FaultInjector(parse_fault_spec(spec), seed=seed))
        try:
            return evaluate_plan_parallel(
                plan,
                q,
                n_threads=4,
                retry=FAST,
                supervise=SupervisorConfig(**cfg),
            )
        finally:
            set_injector(None)

    def test_block_errors_retried_to_exact_result(
        self, clean_injector, plan_and_serial
    ):
        plan, q, serial = plan_and_serial
        par = self._run(plan, q, "block_error:0.5", 3)
        self._assert_matches_serial(par, serial)
        assert par.n_retries > 0

    def test_total_failure_falls_back_serially(self, clean_injector, plan_and_serial):
        plan, q, serial = plan_and_serial
        par = self._run(plan, q, "block_error:1.0", 0)
        self._assert_matches_serial(par, serial)
        # every unit is completed on the coordinator: quarantined, or on
        # the serial floor once the breaker has tripped
        assert par.n_fallbacks == par.n_blocks
        assert par.n_degradations == 1

    def test_corrupted_blocks_caught_and_recovered(
        self, clean_injector, plan_and_serial
    ):
        plan, q, serial = plan_and_serial
        par = self._run(plan, q, "block_nan:0.5", 1)
        self._assert_matches_serial(par, serial)
        assert par.n_retries > 0 or par.n_fallbacks > 0

    def test_hung_blocks_abandoned_and_recovered(self, clean_injector, plan_and_serial):
        plan, q, serial = plan_and_serial
        par = self._run(plan, q, "block_hang:0.3:0.2", 2, unit_deadline=0.05)
        self._assert_matches_serial(par, serial)
        assert par.n_reaped > 0


# ----------------------------------------------------------------------
# Numerical guards
# ----------------------------------------------------------------------


class TestGuards:
    def test_check_finite_passes_through(self):
        x = np.arange(4.0)
        assert check_finite("t", x) is x

    def test_check_finite_diagnostic(self):
        x = np.ones(10)
        x[3] = np.nan
        x[7] = np.inf
        with pytest.raises(NumericalCorruptionError) as ei:
            check_finite("unit.test", x, context="unit vector")
        msg = str(ei.value)
        assert "unit.test" in msg and "unit vector" in msg
        assert "2" in msg and "3" in msg  # bad count and first bad index

    def test_nan_charges_rejected_at_construction(self, small_cloud):
        pts, q = small_cloud
        q = q.copy()
        q[5] = np.nan
        with pytest.raises(NumericalCorruptionError):
            Treecode(pts, q)

    def test_coeff_injection_fails_loudly(self, clean_injector, small_cloud):
        pts, q = small_cloud
        set_injector(FaultInjector(parse_fault_spec("coeff_nan:1.0"), seed=0))
        # expansions are formed when evaluate executes its plan
        tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=3, alpha=0.7))
        with pytest.raises(NumericalCorruptionError, match="treecode.coeffs"):
            tc.evaluate()

    def test_bound_accounting_agrees(self):
        check_bound_accounting("t", np.array([1.0, 2.0]), {0: 1.5, 1: 1.5})

    def test_bound_accounting_mismatch_raises(self):
        with pytest.raises(BoundAccountingError):
            check_bound_accounting("t", np.array([1.0, 2.0]), {0: 5.0})

    def test_bound_accounting_rejects_nonfinite(self):
        with pytest.raises(NumericalCorruptionError):
            check_bound_accounting("t", np.array([np.nan]), {0: 0.0})

    def test_evaluation_bounds_still_consistent(self, clean_injector, small_cloud):
        """The Theorem-1 ledger check is exercised by a bounded evaluation."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=3, alpha=0.7))
        res = tc.evaluate(accumulate_bounds=True)
        assert res.error_bound is not None


# ----------------------------------------------------------------------
# GMRES breakdown, stagnation, and recovery
# ----------------------------------------------------------------------


def _spd_system(n=60, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return A, b


class TestGmresRecovery:
    def test_breakdown_flag_on_injected_nan(self, clean_injector):
        A, b = _spd_system()
        set_injector(FaultInjector(parse_fault_spec("gmres_nan:1.0"), seed=0))
        res = gmres(lambda v: A @ v, b, restart=10, tol=1e-10)
        assert res.breakdown and not res.converged
        assert np.isfinite(res.x).all()

    def test_healthy_solve_takes_no_recovery_action(self, clean_injector):
        A, b = _spd_system()
        out = solve_with_recovery(lambda v: A @ v, b, restart=20, tol=1e-10)
        assert out.result.converged and not out.recovered

    def test_recovery_from_persistent_breakdown_via_dense(self, clean_injector):
        """Injection poisons every Krylov matvec; only the dense fallback,
        which calls the raw operator, can finish the solve."""
        A, b = _spd_system()
        set_injector(FaultInjector(parse_fault_spec("gmres_nan:1.0"), seed=0))
        out = solve_with_recovery(lambda v: A @ v, b, restart=5, tol=1e-8)
        assert out.result.converged
        assert any(a.startswith("dense_solve") for a in out.actions)
        assert any("escalate_restart" in a for a in out.actions)
        x_exact = np.linalg.solve(A, b)
        assert np.linalg.norm(out.result.x - x_exact) < 1e-6 * np.linalg.norm(x_exact)

    def test_escalation_rescues_tight_restart(self, clean_injector):
        A, b = _spd_system(n=80, seed=1)
        out = solve_with_recovery(lambda v: A @ v, b, restart=1, tol=1e-12, maxiter=3)
        assert out.result.converged
        assert out.recovered

    def test_stagnation_flag(self, clean_injector):
        """Restarted GMRES on a cyclic shift makes exactly zero progress
        per cycle, tripping the stagnation detector."""
        n = 40
        A = np.roll(np.eye(n), 1, axis=0)
        b = np.zeros(n)
        b[0] = 1.0
        res = gmres(lambda v: A @ v, b, restart=1, tol=1e-12, maxiter=200)
        assert not res.converged
        assert res.stagnated


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path, meta={"exp": "t", "seed": 0})
        ck.save("a", {"x": 1.5})
        ck.save("b", [1, 2, 3])
        again = Checkpoint(path, meta={"exp": "t", "seed": 0})
        assert len(again) == 2 and "a" in again
        assert again.get("a") == {"x": 1.5} and again.get("b") == [1, 2, 3]

    def test_meta_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint(path, meta={"seed": 0}).save("a", 1)
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            Checkpoint(path, meta={"seed": 1})

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "meta": {}, "rows": {}}))
        with pytest.raises(CheckpointMismatch, match="version"):
            Checkpoint(path)

    def test_no_tmp_droppings(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path)
        for i in range(5):
            ck.save(f"k{i}", i)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_clear(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint(path)
        ck.save("a", 1)
        ck.clear()
        assert not path.exists() and len(ck) == 0

    def test_cached_step_replays(self, tmp_path):
        path = tmp_path / "ck.json"
        calls = []

        def step():
            calls.append(1)
            return {"v": 7}

        ck = Checkpoint(path)
        assert cached_step(ck, "s", step) == {"v": 7}
        assert cached_step(ck, "s", step) == {"v": 7}
        assert len(calls) == 1
        fresh = Checkpoint(path)
        assert cached_step(fresh, "s", step) == {"v": 7}
        assert len(calls) == 1

    def test_cached_step_without_checkpoint(self):
        assert cached_step(None, "s", lambda: 3) == 3


class TestTable3Resume:
    RES = dict(propeller_res=4, gripper_res=3)

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path, monkeypatch,
                                                      clean_injector):
        import repro.experiments.table3 as t3

        path = tmp_path / "table3.json"
        real = t3.run_table3_geometry

        def dies_on_gripper(name, *args, **kwargs):
            if name == "gripper":
                raise KeyboardInterrupt
            return real(name, *args, **kwargs)

        monkeypatch.setattr(t3, "run_table3_geometry", dies_on_gripper)
        with pytest.raises(KeyboardInterrupt):
            run_table3(checkpoint=Checkpoint(path, meta={"s": 1}), **self.RES)
        monkeypatch.setattr(t3, "run_table3_geometry", real)

        saved = json.loads(path.read_text())
        assert list(saved["rows"]) == ["geometry:propeller"]
        stored_prop = saved["rows"]["geometry:propeller"]

        rows, info = run_table3(checkpoint=Checkpoint(path, meta={"s": 1}), **self.RES)
        assert {r.geometry for r in rows} == {"propeller", "gripper"}
        # resumed rows replay the stored payload exactly — including the
        # measured wall times, which a recomputation could never reproduce
        prop_rows = [r for r in rows if r.geometry == "propeller"]
        assert [vars(r) for r in prop_rows] == stored_prop["rows"]
        assert info["propeller"] == stored_prop["gmres"]

        final = json.loads(path.read_text())
        assert set(final["rows"]) == {"geometry:propeller", "geometry:gripper"}
        assert final["rows"]["geometry:propeller"] == stored_prop
