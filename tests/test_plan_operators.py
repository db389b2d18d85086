"""Frozen plan operators as sparse matrices (repro.perf.operators).

Every planned execute is checked against the same plan compiled fully
spilled (``memory_budget=0``), whose far rows and near kernels are
rebuilt from geometry on each application — the on-the-fly oracle.
Covers both plan modes, fixed and variable-order plans (including
storage degrees above the evaluation degree), potentials and gradients,
single vectors and batches, the unit decomposition the executors
schedule, and the exact last-resort evaluation of near row ranges.

The near field has one path at every memory budget: frozen units are
the leading row ranges of one CSR, every other unit is re-assembled
from its incidences by ``assemble_near`` — so near values are bitwise
those of the default-budget plan at any budget, after memory shedding,
and under quarantine.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.perf.operators import complex_layout, csr_product, real_layout, row_ranges
from repro.perf.cluster import ClusterPlan
from repro.perf.plan import DEFAULT_MEMORY_BUDGET
from repro.perf.scatter import scatter_add

N = 500
#: variable-order tolerance: degrees 2..15 over this cloud, with mixed
#: storage degrees, while the complex128 cluster M2L stays cheap
TOL = 0.1


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(2024)
    pts = rng.random((N, 3))
    q = rng.uniform(-1.0, 1.0, N)
    Q = rng.uniform(-1.0, 1.0, (N, 8))
    return pts, q, Q


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CASES = [
    ("target", None),
    ("target", TOL),
    ("cluster", None),
    ("cluster", TOL),
]


def _plans(cloud, mode, tol, compute="potential"):
    """The default-budget plan and its fully spilled oracle.  The leaf
    size pins the full tree: a chosen cut depends on the budget."""
    pts, q, _ = cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    kw = dict(mode=mode, tol=tol, compute=compute, cache_dir="")
    plan = tc.compile_plan(**kw)
    assert mode == "target" or plan.n_box_pairs > 0
    return plan, tc.compile_plan(memory_budget=0, **kw)


@pytest.mark.parametrize("mode,tol", CASES)
@pytest.mark.parametrize("compute", ["potential", "both"])
def test_execute_matches_spilled_oracle(cloud, mode, tol, compute):
    _, q, _ = cloud
    plan, oracle = _plans(cloud, mode, tol, compute)
    assert plan.n_near_precomputed > 0 and plan.n_near_spilled == 0
    assert oracle.n_near_precomputed == 0
    got, want = plan.execute(q), oracle.execute(q)
    assert _rel(got.potential, want.potential) <= 1e-12
    if compute == "both":
        assert _rel(got.gradient, want.gradient) <= 1e-12


def test_variable_order_reads_higher_storage_degrees(cloud):
    """Variable-order plans store a node's coefficients once, at its
    highest pair degree; lower-degree operands slice the leading
    coefficients of those rows."""
    for mode in ("target", "cluster"):
        plan, _ = _plans(cloud, mode, TOL)
        mixed = [p for p, Ps in plan._operands.items() if max(Ps) > p]
        assert mixed, mode


@pytest.mark.parametrize("mode,tol", CASES)
def test_batches(cloud, mode, tol):
    _, q, Q = cloud
    plan, oracle = _plans(cloud, mode, tol)
    one = plan.execute(q).potential
    col = plan.execute(q[:, None]).potential
    assert col.shape == (N, 1)
    assert np.array_equal(col[:, 0], one)  # (n, 1) runs the 1-D path
    batch = plan.execute(Q).potential
    ref = oracle.execute(Q).potential
    for j in range(Q.shape[1]):
        single = plan.execute(np.ascontiguousarray(Q[:, j])).potential
        assert _rel(batch[:, j], single) <= 1e-12
        assert _rel(batch[:, j], ref[:, j]) <= 1e-12


@pytest.mark.parametrize("mode,tol", CASES)
def test_unit_sum_is_execute_bitwise(cloud, mode, tol):
    _, q, _ = cloud
    plan, _ = _plans(cloud, mode, tol)
    qs = plan.sort_charges(q)
    ctx = plan.form_coefficients(qs)
    phi = np.zeros(plan.n_targets)
    for i in range(plan.n_units):
        tids, vals = plan.execute_unit(ctx, qs, i)
        scatter_add(phi, tids, vals)
    phi, _, _ = plan.finalize(phi)
    assert np.array_equal(phi, plan.execute(q).potential)


@pytest.mark.parametrize("mode", ["target", "cluster"])
def test_direct_near_unit_is_direct_summation(cloud, mode):
    pts, q, _ = cloud
    plan, _ = _plans(cloud, mode, None)
    tree = plan.tc.tree
    qs = plan.sort_charges(q)
    nf = plan.n_units - plan.n_near_precomputed - plan.n_near_spilled
    ptr, idx = plan._near_indptr, plan._near_indices
    for j in (0, plan.n_near_precomputed - 1):
        tids, vals = plan.execute_unit_direct(qs, nf + j)
        ref = np.empty(tids.size)
        for k, t in enumerate(tids):
            src = idx[ptr[t] : ptr[t + 1]]
            src = src[src != t]  # self-evaluation skips the target itself
            r = np.linalg.norm(plan.tgt[t] - tree.points[src], axis=1)
            ref[k] = np.sum(qs[src] / r)
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0)
        _, frozen = plan.execute_unit(plan.form_coefficients(qs), qs, nf + j)
        np.testing.assert_allclose(vals, frozen, rtol=1e-13, atol=0)


def _near_parts(plan, q, grad):
    """The plan's whole near field (potential, gradient) and every near
    unit through ``execute_unit`` and ``execute_unit_direct``."""
    qs = plan.sort_charges(q)
    phi = np.zeros((plan.n_targets,) + qs.shape[1:])
    g = np.zeros((plan.n_targets, 3)) if grad else None
    plan._near_field(qs, phi, g)
    nf = plan.n_units - plan._near_units.shape[0]
    units = [plan.execute_unit(None, qs, i) for i in range(nf, plan.n_units)]
    direct = [plan.execute_unit_direct(qs, i) for i in range(nf, plan.n_units)]
    return phi, g, units, direct


#: a budget that freezes some near units of every (mode, compute) plan
#: over ``cloud`` and spills the rest
PARTIAL = 200_000


@pytest.mark.parametrize("budget", ["zero", "partial", "default", "shed"])
@pytest.mark.parametrize("compute", ["potential", "both"])
@pytest.mark.parametrize("mode", ["target", "cluster", "cluster-cut"])
def test_near_field_is_bitwise_at_every_budget(cloud, mode, compute, budget):
    pts, q, Q = cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)

    def compile_(**kw):
        # "cluster-cut": a cluster plan cut one level below the root,
        # each unit one broadcast block of an octant's rows
        if mode == "cluster-cut":
            return ClusterPlan(tc, tc.tree.points, compute=compute, cut=1, **kw)
        return tc.compile_plan(mode=mode, compute=compute, cache_dir="", **kw)

    ref = compile_()
    m = ref._near_units.shape[0]
    assert ref.n_near_precomputed == m and ref.n_near_spilled == 0
    if budget == "shed":
        plan = compile_()
        assert plan.shed_memory() > 0 and plan.shed_memory() > 0
        assert plan._near_K is None
    else:
        partial = PARTIAL
        if mode == "cluster-cut":  # the entries of the first half of the units
            partial = (12 + 24 * (compute == "both")) * int(ref._near_cum[m // 2])
        mb = {"zero": 0, "partial": partial, "default": DEFAULT_MEMORY_BUDGET}
        plan = compile_(memory_budget=mb[budget])
    pre = plan.n_near_precomputed
    assert {"zero": pre == 0, "partial": 0 < pre < m, "default": pre == m,
            "shed": pre == 0}[budget]
    assert pre + plan.n_near_spilled == m
    # the unit layout does not depend on the budget
    assert plan.n_units == ref.n_units
    assert np.array_equal(plan._near_units, ref._near_units)
    if budget == "zero":  # incidences, not entries: no per-entry arrays
        assert plan._near_indices is None
        assert sum(a.size for a in plan._near_inc) < ref._near_indices.size // 2
    grad = compute == "both"
    phi, g, units, direct = _near_parts(plan, q, grad)
    rphi, rg, runits, _ = _near_parts(ref, q, grad)
    np.testing.assert_array_equal(phi, rphi)
    if grad:
        np.testing.assert_array_equal(g, rg)
    else:
        np.testing.assert_array_equal(_near_parts(plan, Q, False)[0],
                                      _near_parts(ref, Q, False)[0])
    for (t, v), (td, vd), (rt, rv) in zip(units, direct, runits):
        np.testing.assert_array_equal(t, rt)
        np.testing.assert_array_equal(td, rt)
        np.testing.assert_array_equal(v, rv)
        np.testing.assert_array_equal(vd, rv)


def test_operators_are_scipy_sparse(cloud):
    target, _ = _plans(cloud, "target", None, "both")
    assert all(isinstance(g.op, sp.bsr_matrix) for g in target._p2m_groups)
    for ch in target._far_chunks:
        nc2 = ch.op.blocksize[1]
        assert ch.op.blocksize == (1, nc2) and ch.gop.blocksize == (3, nc2)
    assert isinstance(target._near_K, sp.csr_matrix)
    # gradient kernels share the potential kernel's sparsity arrays
    for G in target._near_G:
        assert np.shares_memory(G.indices, target._near_K.indices)
    cluster, _ = _plans(cloud, "cluster", None)
    for u in cluster._units:
        for gl in u.l2p:
            # one (1, 2·nc) block per target
            assert gl.op.blocksize[0] == 1
            assert gl.op.nnz == gl.tidx.size * gl.op.blocksize[1]


def test_layout_helpers_roundtrip():
    rng = np.random.default_rng(0)
    C = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    assert np.array_equal(complex_layout(real_layout(C), 6), C)
    assert np.array_equal(complex_layout(real_layout(C), 3), C[:, :3])
    Cb = rng.normal(size=(5, 4, 6)) + 1j * rng.normal(size=(5, 4, 6))
    X = real_layout(Cb)
    assert X.shape == (5, 12, 4)
    assert np.array_equal(complex_layout(X, 6), Cb)


def test_csr_rows_and_ranges():
    rng = np.random.default_rng(1)
    A = sp.random(40, 30, density=0.2, format="csr", random_state=rng)
    x = rng.normal(size=30)
    X = rng.normal(size=(30, 3))
    units = row_ranges(A.indptr, np.arange(0, 40, 7), budget=10)
    assert np.all(units[1:, 0] >= units[:-1, 1])  # ascending, disjoint
    covered = np.zeros(40, dtype=bool)
    for r0, r1 in units:
        assert r0 // 7 == (r1 - 1) // 7  # never crosses a start
        assert A.indptr[r1] - A.indptr[r0] <= 10 or r1 - r0 == 1
        # per row the same arithmetic as the whole product
        rows = (A.indptr[r0 : r1 + 1], A.indices, A.data, 30)
        assert np.array_equal(csr_product(*rows, x), (A @ x)[r0:r1])
        assert np.array_equal(csr_product(*rows, X), (A @ X)[r0:r1])
        covered[r0:r1] = True
    # every row holding entries belongs to a unit
    assert not np.any(np.diff(A.indptr)[~covered])
    # float32 data runs in float32
    A32 = sp.csr_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)
    assert csr_product(A32.indptr, A32.indices, A32.data, 30, x).dtype == np.float32
