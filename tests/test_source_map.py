"""Target-major plans with a folded source map (``compile_plan(source_map=M)``).

A mapped plan applies to source vectors ``x`` and returns the potentials
of the charges ``M x``: the map is folded into its P2M groups and near
kernels when they are built.  Checked here on the BEM operator (whose
map ``W`` turns nodal densities into Gauss-point charges) and on point
clouds with synthetic maps:

* the mapped matvec against the dense collocation matrix and against
  the unmapped plan run on the formed charges;
* single vectors, ``(V, 1)`` and ``(V, k)`` batches, bitwise per column;
* near values bitwise equal across budgets, memory shedding and the
  quarantine's direct re-assembly; direct far units within Theorem 1;
* several P2M storage groups, variable-order plans, gradients, bounds
  and the parallel executors.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bem import SingleLayerOperator, icosphere
from repro.core.bounds import theorem1_bound
from repro.core.degree import AdaptiveChargeDegree, FixedDegree
from repro.core.treecode import Treecode
from repro.parallel import evaluate_plan_parallel
from repro.perf.operators import fold_map


@pytest.fixture(scope="module")
def sphere():
    return icosphere(2)  # 162 vertices, 320 triangles


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _op(sphere, **kw):
    kw.setdefault("degree_policy", FixedDegree(4))
    return SingleLayerOperator(sphere, n_gauss=6, leaf_size=16, **kw)


def _unmapped(op, **kw):
    """The operator's plan compiled without the map (run on charges)."""
    return op.treecode.compile_plan(targets=op.mesh.vertices, lists=op._lists, **kw)


def _sigma(sphere, k=None, seed=7):
    rng = np.random.default_rng(seed)
    shape = (sphere.n_vertices,) if k is None else (sphere.n_vertices, k)
    return rng.standard_normal(shape)


def test_fold_map_is_scipy_product_row_by_row():
    A = sp.random(40, 70, density=0.2, random_state=1, format="csr")
    M = sp.random(70, 25, density=0.1, random_state=2, format="csr")
    ref = (A @ M).toarray()
    V = np.stack([A.data, -3 * A.data], axis=1)
    for values in ([A.data], [V], [A.data, V]):
        ptr, cols, folded = fold_map(A.indptr, A.indices, values, M)
        F = sp.csr_matrix((folded[0].reshape(cols.size, -1)[:, 0], cols, ptr),
                          shape=ref.shape)
        np.testing.assert_array_equal(F.toarray(), ref)
        assert F.has_sorted_indices
        # a row range folds to those rows of the whole fold, bitwise
        p2, c2, f2 = fold_map(A.indptr[10:21], A.indices, values, M)
        np.testing.assert_array_equal(c2, cols[ptr[10] : ptr[20]])
        for a, b in zip(f2, folded):
            np.testing.assert_array_equal(a, b[ptr[10] : ptr[20]])


def test_matvec_matches_dense_matrix(sphere):
    """A vanishing MAC leaves only the near field (and point-like
    clusters, whose expansions are exact): the folded operator is the
    collocation matrix to rounding."""
    op = _op(sphere, alpha=1e-6)
    sigma = _sigma(sphere)
    np.testing.assert_allclose(op.matvec(sigma), op.dense_matrix() @ sigma, rtol=1e-12)


def test_matvec_matches_unmapped_plan(sphere):
    op = _op(sphere)
    sigma = _sigma(sphere)
    got = op.matvec(sigma)
    assert op._plan.n_sources == sphere.n_vertices
    assert "map=162" in op._plan.describe()
    want = _unmapped(op).execute(op.charges_for(sigma)).potential
    assert _rel(got, want) <= 1e-12
    # the map shrinks the charge-side operators
    plain = _unmapped(op)
    assert sum(g.op.nnz for g in op._plan._p2m_groups) < sum(
        g.op.nnz for g in plain._p2m_groups
    )
    assert op._plan._near_K.nnz < plain._near_K.nnz


def test_sigma_shapes_and_batches(sphere):
    op = _op(sphere)
    S = _sigma(sphere, k=4)
    one = op.matvec(S[:, 0].copy())
    col = op.matvec(S[:, :1])
    assert col.shape == (sphere.n_vertices, 1)
    np.testing.assert_array_equal(col[:, 0], one)
    batch = op.matvec(S)
    assert batch.shape == S.shape
    for j in range(S.shape[1]):
        np.testing.assert_array_equal(batch[:, j], op.matvec(S[:, j].copy()))
    with pytest.raises(ValueError):
        op.matvec(np.ones(10))


def _near_units(plan, x, exact=False):
    nf = plan._n_far_units
    return [plan._near_unit(x, j, exact=exact)[1] for j in range(plan.n_units - nf)]


def test_near_bitwise_across_budgets_shedding_and_quarantine(sphere):
    op = _op(sphere)
    sigma = _sigma(sphere)
    op.matvec(sigma)
    plan = op._plan
    spilled = op.treecode.compile_plan(
        targets=sphere.vertices, lists=op._lists,
        memory_budget=0, source_map=op.source_map,
    )
    assert plan.n_near_spilled == 0 and spilled.n_near_precomputed == 0
    assert plan.n_near_precomputed > 0
    ref = _near_units(plan, sigma)
    for got in (
        _near_units(spilled, sigma),
        _near_units(plan, sigma, exact=True),
    ):
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
    # far rows rebuilt from geometry: the whole execute is bitwise too
    full = plan.execute(sigma).potential
    np.testing.assert_array_equal(spilled.execute(sigma).potential, full)
    # quarantine: near units re-assembled exactly, far units by direct
    # summation within each pair's Theorem-1 bound
    x = plan.sort_charges(sigma)
    ctx = plan.form_coefficients(x)
    q = plan._particle_charges(x)
    tree = plan.tc.tree
    for i in range(plan.n_units):
        tids, vals = plan.execute_unit(ctx, x, i)
        dt, dv = plan.execute_unit_direct(x, i)
        np.testing.assert_array_equal(dt, tids)
        if i >= plan._n_far_units:
            np.testing.assert_array_equal(dv, vals)
            continue
        ch = plan._far_chunks[i]
        nodes = plan._operand_nodes[ch.p][ch.cols]
        rel = plan.tgt[ch.tids] - tree.center_exp[nodes]
        A = np.array([np.abs(q[tree.start[n] : tree.end[n]]).sum() for n in nodes])
        bound = theorem1_bound(A, tree.radius[nodes], np.linalg.norm(rel, axis=1), ch.p)
        assert np.all(np.abs(dv - vals) <= bound * (1 + 1e-9) + 1e-15)
    # memory shedding: exact re-assembly, then nothing left to shed
    assert plan.shed_memory() > 0
    assert plan.shed_memory() == 0
    assert plan.n_near_precomputed == 0
    for a, b in zip(_near_units(plan, sigma), ref):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(plan.execute(sigma).potential, full)


def test_adaptive_degree_and_tol_plans(sphere):
    for kw in (
        dict(degree_policy=AdaptiveChargeDegree(p0=3, alpha=0.5)),
        dict(tol=1e-3),
    ):
        op = _op(sphere, **kw)
        sigma = _sigma(sphere)
        got = op.matvec(sigma)
        if "tol" not in kw:
            assert len(op._plan._p2m_groups) > 1
        want = _unmapped(op, tol=op.tol).execute(op.charges_for(sigma)).potential
        assert _rel(got, want) <= 1e-12


@pytest.mark.parametrize("fleet", ["thread"])  # the one fleet, named in the id
def test_parallel_executors_bitwise(sphere, fleet):
    op = _op(sphere)
    sigma = _sigma(sphere)
    want = op.matvec(sigma)
    res = evaluate_plan_parallel(op._plan, sigma, n_threads=2)
    np.testing.assert_array_equal(res.potential, want)
    S = _sigma(sphere, k=3)
    res = evaluate_plan_parallel(op._plan, S, n_threads=2)
    np.testing.assert_array_equal(res.potential, op._plan.execute(S).potential)


@pytest.fixture(scope="module")
def cloud_map():
    """A point cloud and a random sparse map onto fewer sources, every
    particle a combination of up to three of them."""
    rng = np.random.default_rng(11)
    n, m = 400, 150
    pts = rng.random((n, 3))
    cols = np.stack([rng.choice(m, 3, replace=False) for _ in range(n)])
    M = sp.csr_matrix(
        (rng.uniform(-1, 1, 3 * n), cols.ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, m),
    )
    tc = Treecode(pts, np.ones(n), degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    return tc, M, rng.standard_normal(m)


def test_self_target_gradients_and_bounds(cloud_map):
    tc, M, x = cloud_map
    kw = dict(compute="both", accumulate_bounds=True)
    mapped = tc.compile_plan(source_map=M, **kw)
    plain = tc.compile_plan(**kw)
    got, want = mapped.execute(x), plain.execute(M @ x)
    assert _rel(got.potential, want.potential) <= 1e-12
    assert _rel(got.gradient, want.gradient) <= 1e-12
    # bounds sum |M x| over each cluster's particles
    assert _rel(got.error_bound, want.error_bound) <= 1e-12
    # gradient near kernels fold onto the potential kernel's pattern
    assert mapped._near_G.shape == (3, mapped._near_K.nnz)
    g_ref = mapped._near_rows(mapped.sort_charges(x), 0, mapped._n_near_units, True)
    mapped.shed_memory()
    g_shed = mapped._near_rows(mapped.sort_charges(x), 0, mapped._n_near_units, True)
    np.testing.assert_array_equal(g_shed[0], g_ref[0])
    np.testing.assert_array_equal(g_shed[1], g_ref[1])


def test_identity_like_map_drops_nothing_it_needs(cloud_map):
    """Self-exclusion zeros fold to exact zero sums under a scaled
    identity; the mapped plan still equals the plain one."""
    tc, _, _ = cloud_map
    n = tc.tree.n_particles
    x = np.random.default_rng(3).standard_normal(n)
    mapped = tc.compile_plan(source_map=2.0 * sp.identity(n, format="csr"))
    plain = tc.compile_plan()
    assert _rel(mapped.execute(x).potential, plain.execute(2.0 * x).potential) <= 1e-13


def test_cluster_plans_take_no_map(cloud_map):
    tc, M, _ = cloud_map
    with pytest.raises(ValueError, match="source_map"):
        tc.compile_plan(mode="cluster", source_map=M)
    with pytest.raises(ValueError, match="rows"):
        tc.compile_plan(source_map=M[:10])


def test_compile_span_reports_operator_entries(sphere):
    """A target-major plan's ``plan.compile`` span carries its P2M and
    far-row entries beside its near entries; the map shrinks the P2M
    entries and leaves the far rows alone."""
    from repro.multipole.harmonics import term_count
    from repro.obs import tracing

    op = _op(sphere)
    tracing.get_tracer().clear()
    tracing.enable()
    try:
        op.matvec(_sigma(sphere))
        plain = _unmapped(op)
        spans = [s for s in tracing.get_tracer().events() if s["name"] == "plan.compile"]
    finally:
        tracing.set_enabled(False)
        tracing.get_tracer().clear()
    (mapped_args, plain_args) = [s["args"] for s in spans]
    # folded rows share no list: a mapped plan runs the CSR kernel alone
    assert mapped_args["near_block_entries"] == 0 == len(op._plan._near_blocks)
    for plan, args in ((op._plan, mapped_args), (plain, plain_args)):
        assert args["near_entries"] == plan._near_cum[-1]
        assert args["near_block_entries"] == plan.near_block_entries
        assert args["p2m_entries"] == sum(g.op.data.size for g in plan._p2m_groups)
        # far rows hold (p+1)² values: no m = 0 imaginary columns
        far = sum(term_count(ch.p) * ch.tids.size for ch in plan._far_chunks)
        assert args["far_entries"] == far > 0
    assert mapped_args["p2m_entries"] < plain_args["p2m_entries"]
    assert mapped_args["far_entries"] == plain_args["far_entries"]
