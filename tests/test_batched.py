"""Tests for multi-RHS batched plan execution.

The acceptance contract: a ``k = 1`` batch is bitwise-identical to the
single-vector path (serial, thread and process backends, including
under fault injection), and every column of a ``k > 1`` batch matches
its standalone evaluation to 1e-12 with the per-column Theorem-1
ledger containment chain (measured <= a-posteriori <= predicted <= tol)
intact.
"""

import numpy as np
import pytest

from repro.core.degree import AdaptiveChargeDegree, FixedDegree
from repro.core.treecode import Treecode
from repro.direct import direct_potential
from repro.parallel import evaluate_plan_parallel
from repro.robust import FaultInjector, parse_fault_spec, set_injector

N = 500
MODES = ("target", "cluster")


@pytest.fixture
def built(rng):
    pts = rng.random((N, 3))
    q = rng.uniform(-1, 1, N)
    # leaf_size pins the full tree: cluster batches run through M2L
    tc = Treecode(
        pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5,
        leaf_size=16,
    )
    return pts, q, tc


def _batch(q, k):
    scales = np.linspace(1.0, -1.0, k)  # columns within the anchor magnitude
    return q[:, None] * scales[None, :]


@pytest.mark.parametrize("mode", MODES)
def test_k1_batch_bitwise_serial(built, mode):
    pts, q, tc = built
    plan = tc.compile_plan(mode=mode)
    single = plan.execute(q).potential
    col = plan.execute(q[:, None]).potential
    assert col.shape == (N, 1)
    assert np.array_equal(col[:, 0], single)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_k1_batch_bitwise_parallel(built, backend):
    pts, q, tc = built
    plan = tc.compile_plan(mode="cluster")
    serial = plan.execute(q).potential
    got = evaluate_plan_parallel(plan, q[:, None], n_threads=2, backend=backend)
    assert got.potential.shape == (N, 1)
    assert np.array_equal(got.potential[:, 0], serial)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_k1_batch_bitwise_under_fault_injection(built, backend):
    """Injected unit failures retry/recover with identical arithmetic,
    so even a faulty run must stay bitwise for k=1 batches."""
    pts, q, tc = built
    plan = tc.compile_plan(mode="cluster")
    serial = plan.execute(q).potential
    set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=7))
    try:
        got = evaluate_plan_parallel(
            plan, q[:, None], n_threads=2, backend=backend
        )
    finally:
        set_injector(None)
    assert np.array_equal(got.potential[:, 0], serial)


@pytest.mark.parametrize("mode", MODES)
def test_batch_columns_match_standalone(built, mode):
    pts, q, tc = built
    plan = tc.compile_plan(mode=mode)
    Q = _batch(q, 4)
    res = plan.execute(Q)
    assert res.potential.shape == (N, 4)
    for j in range(4):
        standalone = plan.execute(np.ascontiguousarray(Q[:, j])).potential
        assert np.max(np.abs(res.potential[:, j] - standalone)) <= 1e-12


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_batch_parallel_matches_serial_batch(built, backend):
    pts, q, tc = built
    plan = tc.compile_plan(mode="cluster")
    Q = _batch(q, 3)
    serial = plan.execute(Q).potential
    got = evaluate_plan_parallel(plan, Q, n_threads=2, backend=backend)
    assert np.array_equal(got.potential, serial)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tol", [1e-2, 1e-5])
def test_batch_ledger_containment_per_column(built, mode, tol):
    """measured <= a-posteriori <= predicted <= tol, column by column.

    The variable-order selection anchors on the compile-time charges;
    every batch column here stays within that anchor's magnitude, so
    the guarantee must hold for each column simultaneously."""
    pts, q, tc = built
    plan = tc.compile_plan(mode=mode, tol=tol, accumulate_bounds=True)
    Q = _batch(q, 3)
    res = plan.execute(Q)
    assert res.error_bound.shape == (N, 3)
    exact = direct_potential(pts, Q)
    for j in range(3):
        err = np.abs(res.potential[:, j] - exact[:, j])
        ledger = res.error_bound[:, j]
        assert np.all(err <= ledger + 1e-15)
        assert float(ledger.max()) <= plan.predicted_ledger_max * (1 + 1e-12)
    assert plan.predicted_ledger_max <= tol * (1.0 + 1e-12)


def test_batch_rejects_bad_shapes(built):
    pts, q, tc = built
    plan = tc.compile_plan()
    with pytest.raises(ValueError):
        plan.execute(q[: N - 1])
    with pytest.raises(ValueError):
        plan.execute(np.empty((N, 0)))
    with pytest.raises(ValueError):
        plan.execute(q.reshape(N, 1, 1))


def test_direct_oracle_batched_columns(rng):
    pts = rng.random((200, 3))
    q = rng.uniform(-1, 1, 200)
    k1 = direct_potential(pts, q[:, None])
    assert k1.shape == (200, 1)
    assert np.array_equal(k1[:, 0], direct_potential(pts, q))
    Q = _batch(q, 3)
    batched = direct_potential(pts, Q)
    assert batched.shape == (200, 3)
    for j in range(3):
        single = direct_potential(pts, np.ascontiguousarray(Q[:, j]))
        # GEMM vs GEMV reduction order: agreement, not bitwise
        assert np.max(np.abs(batched[:, j] - single)) <= 1e-13


def test_fmm_batch_columns(rng):
    from repro.fmm.engine import UniformFMM

    pts = rng.random((900, 3))
    q = rng.uniform(-1, 1, 900)
    Q = _batch(q, 3)
    fmm = UniformFMM(pts, q, level=2, degrees=5)
    single = fmm.evaluate()  # compiles the plan the batches run through
    fmm.set_charges(q[:, None])
    k1 = fmm.evaluate()
    assert k1.shape == (900, 1)
    assert np.array_equal(k1[:, 0], single)
    fmm.set_charges(Q)
    batch = fmm.evaluate()
    for j in range(3):
        fmm.set_charges(np.ascontiguousarray(Q[:, j]))
        standalone = fmm.evaluate()
        assert np.max(np.abs(batch[:, j] - standalone)) <= 1e-12


def test_bem_batch_columns(rng):
    from repro.bem.geometries import icosphere
    from repro.bem.operator import SingleLayerOperator

    mesh = icosphere(1)
    sig = rng.uniform(-1, 1, mesh.n_vertices)
    S = _batch(sig, 3)
    op = SingleLayerOperator(mesh)
    batch = op.matvec(S)  # k > 1 compiles the plan immediately
    assert batch.shape == (mesh.n_vertices, 3)
    for j in range(3):
        standalone = op.matvec(np.ascontiguousarray(S[:, j]))
        assert np.max(np.abs(batch[:, j] - standalone)) <= 1e-12
