"""Tests for compiled evaluation plans: plan-vs-direct equivalence,
memory-budget spill, BEM/FMM/parallel wiring, fault-injection parity,
and the bincount scatter kernel."""

import numpy as np
import pytest

from repro import AdaptiveChargeDegree, FixedDegree, Treecode
from repro.bem import OperatorGeometry, SingleLayerOperator
from repro.bem.geometries import icosphere
from repro.fmm import UniformFMM
from repro.parallel import evaluate_plan_parallel
from repro.perf import scatter_add
from repro.perf.cluster import ClusterPlan
from repro.perf.plan import CompiledPlan
from repro.robust.faults import FaultInjector, parse_fault_spec, set_injector
from repro.robust.guards import NumericalCorruptionError
from repro.robust.retry import RetryPolicy
from repro.tree.dualtree import VList
from repro.tree.octree import build_octree
from treecode_reference import assert_matches_reference, reference_evaluate

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)


def assert_stats_equal(a, b):
    """Interaction counts are frozen at compile time and must match
    *exactly* (they are integers, not floats)."""
    assert a.n_targets == b.n_targets
    assert a.n_pc_interactions == b.n_pc_interactions
    assert a.n_pp_pairs == b.n_pp_pairs
    assert a.n_terms == b.n_terms
    assert a.interactions_by_degree == b.interactions_by_degree
    assert a.interactions_by_level == b.interactions_by_level


# ----------------------------------------------------------------------
# Plan vs direct equivalence
# ----------------------------------------------------------------------


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "policy",
        [FixedDegree(4), AdaptiveChargeDegree(p0=3, alpha=0.6)],
        ids=["fixed", "adaptive"],
    )
    def test_self_eval_matches_direct(self, small_cloud, policy):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=policy, alpha=0.6)
        ref = reference_evaluate(tc, compute="both", accumulate_bounds=True)
        plan = tc.compile_plan(compute="both", accumulate_bounds=True)
        assert_matches_reference(plan.execute(q), ref)

    def test_external_targets(self, small_cloud, rng):
        pts, q = small_cloud
        tgt = rng.random((150, 3)) * 1.5 - 0.25
        tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.5)
        ref = reference_evaluate(tc, tgt, compute="both", accumulate_bounds=True)
        plan = tc.compile_plan(targets=tgt, compute="both", accumulate_bounds=True)
        assert_matches_reference(plan.execute(q), ref)

    def test_plan_is_pure_across_charge_swaps(self, small_cloud, rng):
        """One plan serves many charge vectors; the treecode's own state
        (set_charges) neither feeds nor invalidates it."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        plan = tc.compile_plan()
        for seed in range(3):
            q2 = np.random.default_rng(seed).uniform(-1, 1, pts.shape[0])
            tc.set_charges(q2)
            res = plan.execute(q2)
            assert_matches_reference(res, reference_evaluate(tc))

    def test_spill_matches_precomputed(self, small_cloud):
        """A zero budget spills every far chunk and near unit to
        on-the-fly evaluation; results must not change."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.6)
        lists = tc.traverse(tc.tree.points, self_targets=True)
        full = tc.compile_plan(compute="both", accumulate_bounds=True, lists=lists)
        spilled = tc.compile_plan(
            compute="both", accumulate_bounds=True, memory_budget=0, lists=lists
        )
        assert full.n_far_spilled == 0 and full.n_near_spilled == 0
        assert spilled.n_far_precomputed == 0 and spilled.n_near_precomputed == 0
        assert spilled.memory_bytes < full.memory_bytes
        a, b = full.execute(q), spilled.execute(q)
        assert np.max(np.abs(a.potential - b.potential)) <= 1e-12
        np.testing.assert_allclose(a.gradient, b.gradient, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            a.error_bound, b.error_bound, rtol=1e-9, atol=1e-12
        )
        assert_stats_equal(a.stats, b.stats)

    def test_validation_errors(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
        lists = tc.traverse(tc.tree.points, self_targets=True)
        with pytest.raises(ValueError, match="compute"):
            CompiledPlan(tc, lists, tc.tree.points, compute="bogus")
        with pytest.raises(ValueError, match="shape"):
            CompiledPlan(tc, lists, np.zeros((5, 2)))
        plan = tc.compile_plan()
        with pytest.raises(ValueError, match="charges"):
            plan.execute(np.zeros(7))

    def test_describe_mentions_structure(self, small_cloud):
        pts, q = small_cloud
        plan = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5).compile_plan()
        text = plan.describe()
        assert "CompiledPlan" in text and "MB" in text
        # far chunks, then near row ranges (frozen or spilled alike)
        assert plan.n_units == (
            len(plan._far_chunks)
            + plan.n_near_precomputed
            + plan.n_near_spilled
        )
        assert plan.compile_time >= 0.0


# ----------------------------------------------------------------------
# Shared trees and shared BEM geometry
# ----------------------------------------------------------------------


class TestSharedGeometry:
    def test_tree_reuse_matches_fresh_build(self, small_cloud):
        pts, q = small_cloud
        tree = build_octree(pts, q)
        fresh = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        shared = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, tree=tree)
        assert shared.tree is tree
        np.testing.assert_array_equal(
            fresh.evaluate().potential, shared.evaluate().potential
        )

    def test_tree_reuse_rejects_mismatched_points(self, small_cloud, rng):
        pts, q = small_cloud
        tree = build_octree(pts, q)
        other = rng.random((pts.shape[0], 3))
        with pytest.raises(ValueError, match="reused tree"):
            Treecode(other, q, degree_policy=FixedDegree(4), alpha=0.5, tree=tree)
        with pytest.raises(ValueError):
            Treecode(
                pts[:-1], q[:-1], degree_policy=FixedDegree(4), alpha=0.5, tree=tree
            )

    def test_operator_geometry_shared(self, rng):
        mesh = icosphere(1)
        x = rng.uniform(0.5, 1.5, mesh.n_vertices)
        geometry = OperatorGeometry(mesh, n_gauss=3)
        solo = SingleLayerOperator(mesh, n_gauss=3, degree_policy=FixedDegree(5))
        shared = SingleLayerOperator(
            mesh, n_gauss=3, degree_policy=FixedDegree(5), geometry=geometry
        )
        np.testing.assert_allclose(shared.matvec(x), solo.matvec(x), rtol=1e-12)
        # a second operator on the same geometry object shares the octree
        other = SingleLayerOperator(
            mesh,
            n_gauss=3,
            degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5),
            geometry=geometry,
        )
        assert other.treecode.tree is shared.treecode.tree

    def test_operator_geometry_mismatch(self):
        geometry = OperatorGeometry(icosphere(1), n_gauss=3)
        with pytest.raises(ValueError):
            SingleLayerOperator(
                icosphere(2), n_gauss=3, degree_policy=FixedDegree(4),
                geometry=geometry,
            )
        with pytest.raises(ValueError):
            SingleLayerOperator(
                geometry.mesh, n_gauss=6, degree_policy=FixedDegree(4),
                geometry=geometry,
            )


# ----------------------------------------------------------------------
# BEM operator plan path
# ----------------------------------------------------------------------


class TestBemPlan:
    def test_matvec_matches_reference(self, rng):
        mesh = icosphere(2)
        x = rng.uniform(0.5, 1.5, mesh.n_vertices)
        y = rng.uniform(-1.0, 1.0, mesh.n_vertices)
        op = SingleLayerOperator(mesh, n_gauss=3, degree_policy=FixedDegree(5), alpha=0.5)

        def reference(sigma):
            # the operator's tree: structure charges are the weights
            tc = Treecode(
                op.points, op.weights, degree_policy=FixedDegree(5),
                alpha=0.5, leaf_size=32,
            )
            tc.set_charges(op.charges_for(sigma))
            return reference_evaluate(tc, mesh.vertices).potential

        # the first application compiles; later ones reuse the plan
        v1 = op.matvec(x)
        plan = op._plan
        assert plan is not None
        np.testing.assert_allclose(v1, reference(x), rtol=0, atol=1e-12)
        v2 = op.matvec(y)
        assert op._plan is plan
        np.testing.assert_allclose(v2, reference(y), rtol=0, atol=1e-12)
        v3 = op.matvec(x)
        np.testing.assert_array_equal(v3, v1)
        assert op.n_matvecs == 3

    def test_on_the_fly_budget_matches_frozen(self, rng):
        """``plan_budget=0`` freezes nothing and gives the same
        potentials, batched or not."""
        mesh = icosphere(2)
        X = rng.uniform(-1.0, 1.0, (mesh.n_vertices, 3))
        frozen = SingleLayerOperator(mesh, n_gauss=3, degree_policy=FixedDegree(5))
        spilled = SingleLayerOperator(
            mesh, n_gauss=3, degree_policy=FixedDegree(5), plan_budget=0
        )
        a, b = frozen.matvec(X), spilled.matvec(X)
        assert spilled._plan.n_far_precomputed == spilled._plan.n_near_precomputed == 0
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spilled.matvec(X[:, 0]), a[:, 0], rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# FMM plan path
# ----------------------------------------------------------------------


class TestFmmPlan:
    def test_repeat_evaluate_matches(self, rng):
        pts = rng.random((700, 3))
        q = rng.uniform(-1.0, 1.0, 700)
        fmm = UniformFMM(pts, q, level=2, degrees=5)
        assert fmm.plan is None
        first = fmm.evaluate()  # compiles and runs the plan
        plan = fmm.plan
        assert isinstance(plan, ClusterPlan) and plan.criterion == VList()
        assert plan.cut_level == fmm.tc.tree.height - 1
        assert fmm.plan_compile_time > 0.0
        assert set(fmm.stats.times) == {"upward", "m2l", "l2l", "near"}
        second = fmm.evaluate()  # reuses it
        assert fmm.plan is plan
        np.testing.assert_array_equal(second, first)

    def test_set_charges_matches_fresh(self, rng):
        pts = rng.random((700, 3))
        q = rng.uniform(-1.0, 1.0, 700)
        q2 = rng.uniform(-1.0, 1.0, 700)
        fmm = UniformFMM(pts, q, level=2, degrees=5)
        fmm.evaluate()
        fmm.set_charges(q2)
        planned = fmm.evaluate()
        reference = UniformFMM(pts, q2, level=2, degrees=5).evaluate()
        np.testing.assert_array_equal(planned, reference)


# ----------------------------------------------------------------------
# Parallel execution of plan units
# ----------------------------------------------------------------------


class TestParallelPlan:
    def test_matches_serial_plan(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.6)
        plan = tc.compile_plan()
        serial = plan.execute(q)
        par = evaluate_plan_parallel(plan, q, n_threads=3, retry=FAST)
        np.testing.assert_allclose(
            par.potential, serial.potential, rtol=0, atol=1e-13
        )
        assert par.n_blocks == plan.n_units
        assert_stats_equal(par.stats, serial.stats)

    def test_thread_count_invariance(self, small_cloud):
        pts, q = small_cloud
        plan = Treecode(
            pts, q, degree_policy=AdaptiveChargeDegree(p0=3, alpha=0.6), alpha=0.6
        ).compile_plan()
        one = evaluate_plan_parallel(plan, q, n_threads=1, retry=FAST)
        four = evaluate_plan_parallel(plan, q, n_threads=4, retry=FAST)
        np.testing.assert_array_equal(one.potential, four.potential)

    def test_block_faults_recovered_exactly(self, small_cloud, injector_guard):
        pts, q = small_cloud
        plan = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.6).compile_plan()
        set_injector(None)
        clean = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        set_injector(FaultInjector(parse_fault_spec("block_error:0.5"), seed=3))
        faulty = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(faulty.potential, clean.potential)
        assert faulty.n_retries + faulty.n_fallbacks > 0


# ----------------------------------------------------------------------
# Fault injection at the coefficient site
# ----------------------------------------------------------------------


class TestPlanFaultParity:
    def test_coeff_corruption_degrades_identically(self, small_cloud, injector_guard):
        """A NaN injected at the coefficient site must trip the same
        guard in a resident plan and in evaluate's spilled one."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        plan = tc.compile_plan()
        set_injector(FaultInjector(parse_fault_spec("coeff_nan:1.0"), seed=0))
        with pytest.raises(NumericalCorruptionError):
            plan.execute(q)
        with pytest.raises(NumericalCorruptionError):
            tc.evaluate()


# ----------------------------------------------------------------------
# scatter_add
# ----------------------------------------------------------------------


class TestScatterAdd:
    def test_empty_is_noop(self):
        out = np.ones(5)
        res = scatter_add(out, np.array([], dtype=np.int64), np.array([]))
        assert res is out
        np.testing.assert_array_equal(out, np.ones(5))

    def test_duplicates_accumulate(self, rng):
        idx = rng.integers(0, 10, 200)
        vals = rng.standard_normal(200)
        expect = np.zeros(10)
        np.add.at(expect, idx, vals)
        got = scatter_add(np.zeros(10), idx, vals)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)

    def test_sparse_path_matches_dense(self, rng):
        # few indices into a large output → np.add.at branch
        n = 1000
        idx = rng.integers(0, n, 20)
        vals = rng.standard_normal(20)
        expect = np.zeros(n)
        np.add.at(expect, idx, vals)
        np.testing.assert_array_equal(scatter_add(np.zeros(n), idx, vals), expect)

    def test_two_dimensional(self, rng):
        idx = rng.integers(0, 8, 100)
        vals = rng.standard_normal((100, 3))
        expect = np.zeros((8, 3))
        np.add.at(expect, idx, vals)
        got = scatter_add(np.zeros((8, 3)), idx, vals)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)

    def test_accumulates_onto_existing(self):
        out = np.arange(4, dtype=np.float64)
        scatter_add(out, np.array([1, 1, 3]), np.array([1.0, 2.0, 5.0]))
        np.testing.assert_array_equal(out, [0.0, 4.0, 2.0, 8.0])
