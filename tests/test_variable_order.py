"""Tests for target-accuracy variable-order plans: per-interaction
degree selection from Theorem-1 bounds (``compile_plan(tol=...)`` and
the :class:`VariableDegree` policy)."""

import numpy as np
import pytest

from repro import DegreeSelectionError, FixedDegree, Treecode, VariableDegree
from repro.direct import direct_potential
from repro.obs import REGISTRY, tracing
from repro.parallel import evaluate_plan_parallel
from repro.robust.faults import FaultInjector, parse_fault_spec, set_injector
from repro.robust.retry import RetryPolicy

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)

MODES = ["target", "cluster"]


# ----------------------------------------------------------------------
# Degree selection extremes
# ----------------------------------------------------------------------


class TestDegreeSelection:
    @pytest.mark.parametrize("mode", MODES)
    def test_loose_tol_collapses_to_monopole(self, small_cloud, mode):
        """A tolerance looser than every interaction's p=0 Theorem-1
        bound must produce an all-monopole plan — the selector picks the
        *minimal* sufficient degree, and 0 suffices everywhere."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode=mode, tol=1e9, accumulate_bounds=True)
        assert plan.pair_degrees.size > 0
        assert int(plan.pair_degrees.max()) == 0
        res = plan.execute(q)
        assert float(res.error_bound.max()) <= 1e9

    @pytest.mark.parametrize("mode", MODES)
    def test_infeasible_tol_raises_with_diagnostics(self, small_cloud, mode):
        """A tolerance tighter than ``p_max`` can achieve must raise
        :class:`DegreeSelectionError` carrying located diagnostics —
        never silently clamp (clamping would break ``ledger <= tol``)."""
        pts, q = small_cloud
        tc = Treecode(
            pts, q, degree_policy=VariableDegree(tol=1e-12, p_max=2), alpha=0.5,
            leaf_size=16,
        )
        with pytest.raises(DegreeSelectionError, match="p_max=2") as exc:
            tc.compile_plan(mode=mode, tol=1e-12)
        err = exc.value
        assert err.p_max == 2
        assert err.pair_idx.size > 0
        # the worst offender is fully located: which pair, which source
        # node, its geometry, and how far over budget it lands
        for key in ("pair", "node", "A", "a", "r", "achieved_bound", "budget"):
            assert key in err.worst
        assert err.worst["achieved_bound"] > err.worst["budget"]

    @pytest.mark.parametrize("mode", MODES)
    def test_tol_defaults_from_policy(self, small_cloud, mode):
        pts, q = small_cloud
        tc = Treecode(
            pts, q, degree_policy=VariableDegree(tol=2e-4), alpha=0.5,
            leaf_size=16,
        )
        plan = tc.compile_plan(mode=mode)
        assert plan.tol == pytest.approx(2e-4)
        assert plan.predicted_ledger_max is not None
        assert plan.predicted_ledger_max <= 2e-4

    @pytest.mark.parametrize("mode", MODES)
    def test_tol_none_matches_fixed_plan_bitwise(self, small_cloud, mode):
        """``tol=None`` must leave the fixed-degree compile path exactly
        as it was — identical potentials and interaction stats."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        a = tc.compile_plan(mode=mode)
        b = tc.compile_plan(mode=mode, tol=None)
        ra, rb = a.execute(q), b.execute(q)
        np.testing.assert_array_equal(ra.potential, rb.potential)
        assert (
            ra.stats.interactions_by_degree == rb.stats.interactions_by_degree
        )
        assert ra.stats.n_pp_pairs == rb.stats.n_pp_pairs


# ----------------------------------------------------------------------
# Containment: measured error <= a-posteriori ledger <= tol
# ----------------------------------------------------------------------


class TestContainment:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("tol", [1e-2, 1e-5])
    def test_error_within_ledger_within_tol(self, small_cloud, mode, tol):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode=mode, tol=tol, accumulate_bounds=True)
        assert mode == "target" or plan.n_box_pairs > 0
        res = plan.execute(q)
        exact = direct_potential(pts, q)
        max_err = float(np.abs(res.potential - exact).max())
        max_ledger = float(res.error_bound.max())
        assert max_err <= max_ledger + 1e-15
        assert max_ledger <= tol * (1.0 + 1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_degree_histogram_counter(self, small_cloud, mode):
        """Compiling a tol plan with obs on populates the per-degree
        interaction histogram (``plan_degree_bucket_pairs``) and the
        predicted-ledger gauge."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        tracing.enable()
        REGISTRY.reset()
        try:
            plan = tc.compile_plan(mode=mode, tol=1e-4)
            hist = REGISTRY.get("plan_degree_bucket_pairs")
            assert hist is not None
            total = sum(
                child.value for _, child in hist._items()
            )
            assert total == plan.pair_degrees.size
            gauge = REGISTRY.get("plan_predicted_ledger_max")
            assert gauge is not None
            assert 0.0 < gauge.value <= 1e-4
        finally:
            tracing.disable()
            REGISTRY.reset()


# ----------------------------------------------------------------------
# Regression: leaves that only inherit local content
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tol", [None, 1e-4])
def test_inherit_only_leaves_compile_and_bound(tol):
    """Collinear clouds produce leaves that are never direct M2L targets
    but inherit local content from ancestor boxes.  The local-degree
    push-down used to be silently discarded (``out=`` into a fancy-index
    temporary), which crashed compilation on such leaves — and, where it
    did not crash, truncated inherited locals below their content degree.
    Both the fixed and the variable-order compiler must handle them."""
    rng = np.random.default_rng(0)
    n = 250
    t = np.sort(rng.random(n))
    pts = np.ascontiguousarray(
        np.column_stack([t, np.full(n, 0.5), np.full(n, 0.5)])
    )
    q = rng.uniform(-1.0, 1.0, n)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    plan = tc.compile_plan(mode="cluster", tol=tol, accumulate_bounds=True)
    res = plan.execute(q)
    exact = direct_potential(pts, q)
    err = np.abs(res.potential - exact)
    assert np.all(err <= res.error_bound + 1e-12)
    if tol is not None:
        assert float(res.error_bound.max()) <= tol * (1.0 + 1e-12)


# ----------------------------------------------------------------------
# Executor parity on degree-bucketed units
# ----------------------------------------------------------------------


class TestExecutorParity:
    def _variable_plan(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        return tc.compile_plan(mode="cluster", tol=1e-5), q

    def test_serial_thread_identical(self, small_cloud):
        plan, q = self._variable_plan(small_cloud)
        serial = plan.execute(q)
        for n_threads in (2, 3):
            thr = evaluate_plan_parallel(plan, q, n_threads=n_threads, retry=FAST)
            np.testing.assert_array_equal(thr.potential, serial.potential)

    def test_block_errors_recovered_exactly(self, small_cloud, injector_guard):
        plan, q = self._variable_plan(small_cloud)
        set_injector(None)
        clean = evaluate_plan_parallel(plan, q, n_threads=2)
        set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=3))
        faulty = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(faulty.potential, clean.potential)
        assert faulty.n_retries + faulty.n_fallbacks > 0
