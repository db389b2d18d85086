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
from its incidences by ``assemble_near``, and every unit runs the dense
blocks listed at compile as BLAS products (``near_product``) — so near
values are bitwise those of the default-budget plan at any budget,
after memory shedding, and under quarantine, and a unit alone is
bitwise its rows of the whole field.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.perf.plan as plan_mod
from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.data.distributions import make_distribution
from repro.perf.operators import (
    _BLOCK_MIN,
    _BLOCK_ROWS,
    csr_product,
    near_product,
    row_ranges,
)
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


def _assert_units_are_rows(plan, x, grad):
    """Each near unit alone — potential (of a vector or a batch) and
    gradient — is bitwise its rows of the whole near field."""
    phi, g, units, _ = _near_parts(plan, x, grad)
    qs = plan.sort_charges(x)
    for j, (t, v) in enumerate(units):
        np.testing.assert_array_equal(v, phi[t])
        if grad:
            np.testing.assert_array_equal(plan._near_rows(qs, j, j + 1, True)[1], g[t])


#: a budget that freezes some near units of every (mode, compute) plan
#: over ``cloud`` and spills the rest
PARTIAL = 200_000


@pytest.mark.parametrize("budget", ["zero", "partial", "default", "shed", "shed1"])
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
    partial = PARTIAL
    if mode == "cluster-cut":  # the entries of the first half of the units
        partial = (12 + 24 * (compute == "both")) * int(ref._near_cum[m // 2])
    if budget in ("shed", "shed1"):
        # "shed": the default plan, shed until nothing is left; "shed1":
        # one shed of a partially spilled plan
        plan = compile_() if budget == "shed" else compile_(memory_budget=partial)
        assert plan.shed_memory() > 0
        assert plan._near_K is None
        assert budget == "shed1" or plan.shed_memory() == 0
    else:
        mb = {"zero": 0, "partial": partial, "default": DEFAULT_MEMORY_BUDGET}
        plan = compile_(memory_budget=mb[budget])
    pre = plan.n_near_precomputed
    assert {"zero": pre == 0, "partial": 0 < pre < m, "default": pre == m,
            "shed": pre == 0, "shed1": pre == 0}[budget]
    assert pre + plan.n_near_spilled == m
    # the unit layout and its blocks do not depend on the budget
    assert plan.n_units == ref.n_units
    assert np.array_equal(plan._near_units, ref._near_units)
    assert np.array_equal(plan._near_blocks, ref._near_blocks)
    assert mode != "cluster-cut" or plan.near_block_entries > 0
    if budget == "zero":  # incidences, not entries: no per-entry arrays
        assert plan._near_indices is None
        assert sum(a.size for a in plan._near_inc) < ref._near_indices.size // 2
    grad = compute == "both"
    _assert_units_are_rows(plan, q, grad)
    if not grad:
        _assert_units_are_rows(plan, Q, False)
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
    # gradient kernels are three value arrays over the potential
    # kernel's sparsity arrays
    assert target._near_G.shape == (3, target._near_K.nnz)
    cluster, _ = _plans(cloud, "cluster", None)
    for u in cluster._units:
        for gl in u.l2p:
            # one (1, 2·nc) block per target
            assert gl.op.blocksize[0] == 1
            assert gl.op.nnz == gl.tidx.size * gl.op.blocksize[1]


@pytest.mark.parametrize("mode", ["target", "cluster"])
def test_gradient_kernels_are_assembled_arrays(cloud, mode, monkeypatch):
    """The frozen gradient kernels are the ``(3, nnz)`` array
    ``assemble_near`` returned, not copies of its rows, and the
    gradients they give are bitwise those of the re-assembled field."""
    import repro.perf.plan as plan_mod

    pts, q, _ = cloud
    made = []

    def capture(*args, **kw):
        out = assemble_near(*args, **kw)
        made.append(out[3])
        return out

    assemble_near = plan_mod.assemble_near
    monkeypatch.setattr(plan_mod, "assemble_near", capture)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    plan = tc.compile_plan(mode=mode, compute="both", cache_dir="")
    assert plan.n_near_spilled == 0 and plan._near_G is not None
    assert any(g is not None and np.shares_memory(plan._near_G, g) for g in made)
    assert plan._near_G.flags.c_contiguous
    _, g_frozen, _, _ = _near_parts(plan, q, True)
    plan.shed_memory()
    assert plan._near_G is None
    _, g_rebuilt, _, _ = _near_parts(plan, q, True)
    np.testing.assert_array_equal(g_rebuilt, g_frozen)


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


def test_chosen_cut_near_field_is_blocks():
    """On the benchmark's 3000-point uniform cloud (±1 charges, half of
    each sign) the chosen cut is 2 and every near entry lies in a dense
    block, one per unit, so no row runs the CSR kernel; an ``(n, 1)``
    batch is bitwise the vector and each ``(n, k)`` column, one GEMM
    over the batch, is within 1e-12 of its single run."""
    n = 3000
    pts = make_distribution("uniform", n)
    rng = np.random.default_rng(1)
    q = np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
    Q = rng.uniform(-1.0, 1.0, (n, 4))
    plan = Treecode(pts, q).compile_plan(mode="cluster", cache_dir="")
    assert plan.cut_level == 2
    assert plan.near_block_entries == plan._near_cum[-1] == plan._near_K.nnz
    assert np.array_equal(plan._near_blocks, plan._near_units)
    one = plan.execute(q).potential
    assert np.array_equal(plan.execute(q[:, None]).potential[:, 0], one)
    batch = plan.execute(Q).potential
    for j in range(Q.shape[1]):
        single = plan.execute(np.ascontiguousarray(Q[:, j])).potential
        assert _rel(batch[:, j], single) <= 1e-12


def test_blocks_never_span_units(cloud, monkeypatch):
    """A ``cut=1`` plan's octants each see one list of every particle.
    Split into several units per octant, every unit large enough is one
    block of its own rows, none spans two units, and a spilled unit's
    re-assembly finds exactly its listed blocks."""
    pts, q, Q = cloud
    monkeypatch.setattr(plan_mod, "_NEAR_BUDGET", 1 << 14)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    plan = ClusterPlan(tc, tc.tree.points, cut=1)
    units, blocks = plan._near_units, plan._near_blocks
    big = (np.diff(plan._near_cum) >= _BLOCK_MIN) & (units[:, 1] - units[:, 0] >= _BLOCK_ROWS)
    assert units.shape[0] > 8 and big.sum() > 8
    assert np.array_equal(blocks, units[big])
    spilled = ClusterPlan(tc, tc.tree.points, cut=1, memory_budget=0)
    assert np.array_equal(spilled._near_blocks, blocks)
    rows, lists, src, off = spilled._near_inc
    for r0, r1 in units[:3]:
        a, b = np.searchsorted(rows, [r0, r1])
        found = plan_mod.assemble_near(
            *spilled._near_coords(), rows[a:b], lists[a:b], src, off, True, 0.0,
            False, span=(r0, r1), cuts=units[:, 0],
        )[4]
        np.testing.assert_array_equal(found + r0, blocks[(blocks[:, 0] >= r0) & (blocks[:, 0] < r1)])
    for x in (q, Q):
        np.testing.assert_array_equal(
            spilled.execute(x).potential, plan.execute(x).potential
        )


def test_near_product_blocks_match_csr_kernel():
    """``near_product`` runs blocks as BLAS products and the rows between
    them through the CSR kernel: within rounding of scipy's product,
    bitwise wherever the block's arrays start, float32 data in float32."""
    rng = np.random.default_rng(3)
    S = np.sort(rng.choice(60, 25, replace=False))
    rows = []
    for r in range(30):
        cols = S if 4 <= r < 12 or 20 <= r < 26 else np.sort(rng.choice(60, 7, replace=False))
        rows.append(cols)
    indptr = np.append(0, np.cumsum([c.size for c in rows]))
    indices = np.concatenate(rows)
    data = rng.normal(size=indices.size)
    A = sp.csr_matrix((data, indices, indptr), shape=(30, 60))
    blocks = np.array([[4, 12], [20, 26]])
    x, X = rng.normal(size=60), rng.normal(size=(60, 3))
    for v in (x, X):
        got = near_product(indptr, indices, data, blocks, 60, v)
        assert _rel(got, A @ v) <= 1e-14
    # rows [4, 12) alone, from arrays starting elsewhere
    lo = indptr[4]
    alone = near_product(indptr[4:13] - lo, indices[lo:], data[lo:].copy(),
                         blocks[:1] - 4, 60, x)
    assert np.array_equal(alone, near_product(indptr, indices, data, blocks, 60, x)[4:12])
    no_blocks = near_product(indptr, indices, data, blocks[:0], 60, x)
    assert np.array_equal(no_blocks, csr_product(indptr, indices, data, 60, x))
    y32 = near_product(indptr, indices, data.astype(np.float32), blocks, 60, x)
    assert y32.dtype == np.float32
