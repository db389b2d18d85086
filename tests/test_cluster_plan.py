"""Tests for cluster-cluster compiled plans (dual-traversal far field
accumulated through local expansions) and the thread fleet of the plan
executor."""

import numpy as np
import pytest

from repro import AdaptiveChargeDegree, FixedDegree, Treecode
from repro.direct import direct_potential
from repro.parallel import evaluate_plan_parallel, resolve_workers
from repro.perf import ClusterPlan
from repro.robust.faults import FaultInjector, parse_fault_spec, set_injector
from repro.robust.retry import RetryPolicy
from repro.tree.dualtree import BoxMAC
from treecode_reference import assert_matches_reference, reference_evaluate

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)


# ----------------------------------------------------------------------
# Cluster plan correctness
# ----------------------------------------------------------------------


class TestClusterPlan:
    @pytest.mark.parametrize(
        "policy",
        [FixedDegree(4), AdaptiveChargeDegree(p0=3, alpha=0.6)],
        ids=["fixed", "adaptive"],
    )
    def test_within_own_bound_of_direct(self, small_cloud, policy):
        """The cluster plan's Theorem-1 ledger (with the dual-MAC pair
        radius a_src + a_tgt) must bound the true error per target."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=policy, alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster", accumulate_bounds=True)
        assert isinstance(plan, ClusterPlan) and plan.n_box_pairs > 0
        assert plan.criterion == BoxMAC(tc.alpha)  # the default separation
        res = plan.execute(q)
        exact = direct_potential(pts, q)
        err = np.abs(res.potential - exact)
        assert np.all(err <= res.error_bound + 1e-12)

    def test_matches_pc_plan_within_combined_ledgers(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        pc = tc.compile_plan(compute="both", accumulate_bounds=True)
        cc = tc.compile_plan(
            mode="cluster", compute="both", accumulate_bounds=True
        )
        a, b = pc.execute(q), cc.execute(q)
        diff = np.abs(a.potential - b.potential)
        assert np.all(diff <= a.error_bound + b.error_bound + 1e-12)
        # gradients agree to truncation accuracy (same degrees, different
        # expansion points -> not bitwise, but the same order of error)
        rel = np.linalg.norm(a.gradient - b.gradient) / np.linalg.norm(a.gradient)
        assert rel <= 1e-2

    def test_bound_ledger_accounts_exactly(self, small_cloud):
        """Sum of the per-level ledger == sum of per-target bounds (the
        finalize guard enforces this; check the numbers directly too)."""
        pts, q = small_cloud
        tc = Treecode(
            pts, q, degree_policy=AdaptiveChargeDegree(p0=3), alpha=0.5, leaf_size=16
        )
        res = tc.compile_plan(mode="cluster", accumulate_bounds=True).execute(q)
        ledger = sum(res.stats.bound_by_level.values())
        assert ledger == pytest.approx(float(np.sum(res.error_bound)), rel=1e-6)

    def test_never_spills_far_field(self, small_cloud):
        """Cluster far field is O(pairs + boxes·p^2) — it precomputes no
        row matrices, so even a 1 MiB budget spills only near units."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        tight = tc.compile_plan(mode="cluster", memory_budget=1 << 20)
        assert tight.n_far_spilled == 0
        full = tc.compile_plan(mode="cluster")
        diff = np.abs(tight.execute(q).potential - full.execute(q).potential)
        assert np.max(diff) <= 1e-12

    def test_stats_frozen_from_global_pairs(self, small_cloud):
        """Unit duplication (a target box appearing in several units)
        must not inflate the frozen interaction counts."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster")
        s = plan.execute(q).stats
        assert s.n_pc_interactions == plan.n_box_pairs
        assert sum(s.interactions_by_degree.values()) == plan.n_box_pairs
        assert sum(s.interactions_by_level.values()) == plan.n_box_pairs

    def test_validation(self, small_cloud, rng):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
        with pytest.raises(ValueError, match="source particles"):
            tc.compile_plan(mode="cluster", targets=rng.random((10, 3)))
        with pytest.raises(ValueError, match="mode"):
            tc.compile_plan(mode="bogus")

    def test_describe(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
        plan = tc.compile_plan(mode="cluster")
        text = plan.describe()
        assert "ClusterPlan" in text and "box_pairs" in text
        assert plan.n_units > 0


class TestBatchedM2L:
    def test_matches_reference_m2l(self, rng):
        """The plan's M2L — one lattice operator per canonical direction,
        distance and octant folded into two scale vectors — matches
        ``translations.m2l`` in complex128."""
        from repro.multipole import lattice
        from repro.multipole.harmonics import ncoef
        from repro.multipole.translations import m2l

        for p in (2, 4, 6):
            B = 17
            C = rng.standard_normal((B, ncoef(p))) + 1j * rng.standard_normal(
                (B, ncoef(p))
            )
            d = rng.integers(-6, 7, size=(B, 3))
            d[np.all(d == 0, axis=1)] = [3, 1, 2]
            want = np.stack([m2l(C[i], 0.25 * d[i], p)[0] for i in range(B)])
            key, octs, r2 = lattice.lattice_keys(d)
            T = lattice.m2l_operators(lattice.unpack_keys(key), p)
            rho = 0.25 * np.sqrt(r2)
            _, inv = lattice.scales(p, rho, octs)
            X = np.stack([C.real, C.imag], axis=-1).reshape(B, -1) * inv
            Y = np.einsum("bi,bij->bj", X, T) * (inv / rho[:, None])
            got = Y[:, 0::2] + 1j * Y[:, 1::2]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# 1 MiB spill path (pc plan) vs the per-pair reference
# ----------------------------------------------------------------------


class TestSpillPath:
    def test_spilled_plan_matches_reference(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        plan = tc.compile_plan(
            compute="both", accumulate_bounds=True, memory_budget=1 << 20
        )
        assert plan.n_far_spilled + plan.n_near_spilled > 0
        assert plan.memory_bytes <= 1 << 20
        ref = reference_evaluate(tc, compute="both", accumulate_bounds=True)
        assert_matches_reference(plan.execute(q), ref)


# ----------------------------------------------------------------------
# The thread fleet
# ----------------------------------------------------------------------


class TestThreadFleet:
    @pytest.mark.parametrize("mode", ["target", "cluster"])
    def test_matches_serial(self, small_cloud, mode):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        plan = tc.compile_plan(mode=mode)
        serial = plan.execute(q)
        par = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(par.potential, serial.potential)
        assert par.n_blocks == plan.n_units
        assert par.stats.n_pc_interactions == serial.stats.n_pc_interactions
        assert par.stats.n_pp_pairs == serial.stats.n_pp_pairs
        assert par.stats.interactions_by_degree == serial.stats.interactions_by_degree

    def test_worker_count_invariance(self, small_cloud):
        pts, q = small_cloud
        plan = Treecode(
            pts, q, degree_policy=AdaptiveChargeDegree(p0=3), alpha=0.5
        ).compile_plan(mode="cluster")
        three = evaluate_plan_parallel(plan, q, n_threads=3, retry=FAST)
        two = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(three.potential, two.potential)

    def test_block_errors_recovered_exactly(self, small_cloud, injector_guard):
        pts, q = small_cloud
        plan = Treecode(
            pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16
        ).compile_plan(mode="cluster")
        set_injector(None)
        clean = evaluate_plan_parallel(plan, q, n_threads=2)
        set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=3))
        faulty = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(faulty.potential, clean.potential)
        assert faulty.n_retries + faulty.n_fallbacks > 0

    def test_backend_keyword_rejected(self, small_cloud):
        """There is one executor: no ``backend`` to choose."""
        pts, q = small_cloud
        plan = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5).compile_plan()
        with pytest.raises(TypeError, match="backend"):
            evaluate_plan_parallel(plan, q, backend="process")


# ----------------------------------------------------------------------
# Satellite: worker-count resolution
# ----------------------------------------------------------------------


class TestResolveWorkers:
    def test_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        assert resolve_workers(None) == 4
        assert resolve_workers(None, default=2) == 2
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(7) == 7  # explicit beats the env
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_NUM_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_env_reaches_plan_executor(self, small_cloud, monkeypatch):
        pts, q = small_cloud
        plan = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5).compile_plan()
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        res = evaluate_plan_parallel(plan, q, retry=FAST)
        assert res.n_threads == 2

    def test_cli_workers_flag(self, monkeypatch, capsys):
        import os as _os

        from repro import cli

        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        monkeypatch.setitem(cli._COMMANDS, "ordering", lambda args: "stub")
        rc = cli.main(["ordering", "--workers", "2"])
        assert rc == 0
        assert _os.environ.get("REPRO_NUM_WORKERS") == "2"
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        with pytest.raises(SystemExit):
            cli.main(["ordering", "--workers", "0"])
