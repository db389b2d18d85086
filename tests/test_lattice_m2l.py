"""Lattice M2L/L2L of box-centred cluster plans: the dense per-direction
operators against the reference translations, the plans' folded per-key
M2L and whole plans against per-pair translations, operators shared by
direction and exact keys at the deepest tree, the direction-operator
memo, operators rebuilt per execute, the box-centred view of the octree
and batch shapes.  ``tests/test_conformance.py`` checks their chain."""

import itertools

import numpy as np
import pytest
from test_rotations import _conj_symmetric_rows

from repro import FixedDegree, Treecode
from repro.core.degree import DegreePolicy
from repro.data.distributions import gaussian_blob, uniform_cube
from repro.direct import pairwise_potential
from repro.multipole import lattice
from repro.multipole.harmonics import ncoef
from repro.multipole.lattice import (
    l2l_operator,
    lattice_keys,
    level_keys,
    m2l_operators,
    scales,
    unpack_keys,
)
from repro.multipole.translations import l2l, m2l
from repro.obs import REGISTRY, tracing
from repro.parallel import evaluate_plan_parallel
from repro.perf import cluster
from repro.perf.cluster import _box_view, _FarUnit, _key_ids
from repro.perf.plan import CompiledPlan
from repro.robust.faults import FaultInjector, parse_fault_spec, set_injector
from repro.robust.retry import RetryPolicy
from repro.tree.dualtree import dual_traverse
from repro.tree.morton import MAX_DEPTH

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)


def _complex(X):
    return X[..., 0::2] + 1j * X[..., 1::2]


def _interleaved(C):
    """Complex coefficients as interleaved ``[Re c, Im c]`` real rows."""
    return np.stack([C.real, C.imag], axis=-1).reshape(*C.shape[:-1], -1)


def _random_coeffs(rng, B, p):
    nc = ncoef(p)
    return rng.standard_normal((B, nc)) + 1j * rng.standard_normal((B, nc))


def _lattice_m2l(C, d, unit, p):
    """M2L of multipoles ``C`` over integer offsets ``d`` (lattice units
    ``unit``) the way a cluster plan applies it: one operator per
    canonical direction, ``ρ`` and the octant folded into two scale
    vectors."""
    key, octs, r2 = lattice_keys(np.asarray(d, dtype=np.int64))
    T = m2l_operators(unpack_keys(key), p)
    rho = unit * np.sqrt(r2)
    _, inv = scales(p, rho, octs)
    X = _interleaved(C) * inv
    Y = np.einsum("bi,bij->bj", X, T) * (inv / rho[:, None])
    return _complex(Y)


def _all_octant_offsets():
    base = np.array(
        [[3, 1, 2], [1, 0, 0], [0, 2, 0], [0, 0, 5], [2, 2, 0], [0, 3, 1],
         [4, 0, 2], [1, 1, 1], [6, 3, 9]]
    )
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    return (base[:, None, :] * signs[None]).reshape(-1, 3)


@pytest.mark.parametrize("p", range(9))
def test_lattice_m2l_matches_reference(p, rng):
    """All 8 octants, axis-aligned offsets with zero components, and
    gcd-reducible offsets sharing a direction, against
    ``translations.m2l`` in complex128."""
    d = _all_octant_offsets()
    C = _random_coeffs(rng, d.shape[0], p)
    unit = 0.125
    want = np.stack([m2l(C[i], unit * d[i], p)[0] for i in range(d.shape[0])])
    got = _lattice_m2l(C, d, unit, p)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_lower_degree_operator_is_leading_block():
    u = unpack_keys(lattice_keys(np.array([[3, 1, 2], [0, 0, 1]]))[0])
    hi = m2l_operators(u, 7)
    for p in (0, 3, 6):
        n2 = 2 * ncoef(p)
        np.testing.assert_array_equal(
            m2l_operators(u, p), hi[:, :n2, :n2]
        )


def test_lattice_keys_are_exact():
    d = np.array([[2, -4, 6], [-1, 2, -3], [0, 0, -7], [0, 0, 1], [5, 0, 0]])
    key, octs, r2 = lattice_keys(d)
    assert key[0] == key[1] and key[2] == key[3] and key[3] != key[4]
    np.testing.assert_array_equal(octs, [2, 5, 4, 0, 0])
    np.testing.assert_array_equal(r2, [56, 14, 49, 1, 25])
    np.testing.assert_allclose(
        unpack_keys(key[:1]), [[1, 2, 3] / np.sqrt(14.0)], rtol=1e-15
    )


@pytest.mark.parametrize("p", [0, 3, 8])
def test_l2l_operator_serves_every_octant_and_level(p, rng):
    """One diagonal operator, scaled by ``D(s)^-1 T D(s)`` and the
    octant signs, is the L2L of all eight child shifts at any size."""
    T = l2l_operator(p)
    C = _random_coeffs(rng, 8, p)
    octs = np.arange(8)
    for h in (0.5, 0.01):
        t = h * np.array([[-1 if o >> a & 1 else 1 for a in range(3)] for o in octs])
        want = l2l(C, t, p)
        fwd, inv = scales(p, np.full(8, h * np.sqrt(3.0)), octs)
        got = _complex(((_interleaved(C) * fwd) @ T) * inv)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_box_view_shares_nodes_with_exact_radius(rng):
    pts = gaussian_blob(700, seed=3)
    tc = Treecode(pts, rng.uniform(-1, 1, 700), degree_policy=FixedDegree(4))
    tree = tc.tree
    view, ic, unit = _box_view(tree)
    assert view is not tree and view.expansion_center == "box"
    for name in ("parent", "start", "end", "level", "points", "abs_charge"):
        assert getattr(view, name) is getattr(tree, name)
    assert view.center_exp is tree.center_geom
    for i in range(tree.n_nodes):
        s, e = tree.start[i], tree.end[i]
        r = np.linalg.norm(tree.points[s:e] - tree.center_geom[i], axis=1).max()
        assert view.radius[i] == pytest.approx(r, rel=1e-14, abs=0)
    # integer lattice centres: every displacement is unit * an integer
    np.testing.assert_allclose(
        tree.domain_lo + ic * unit, tree.center_geom, rtol=0, atol=1e-14
    )
    # the target-major plans keep their charge-centred expansions
    assert tree.expansion_center == "abs_com"


@pytest.fixture(scope="module")
def plan_and_charges():
    rng = np.random.default_rng(5)
    pts = uniform_cube(900, seed=5)
    q = rng.uniform(-1, 1, 900)
    Q = rng.uniform(-1, 1, (900, 5))
    plan = Treecode(pts, q, leaf_size=16).compile_plan(mode="cluster")
    assert plan.n_box_pairs > 0
    return plan, q, Q


def test_batch_shapes(plan_and_charges):
    plan, q, Q = plan_and_charges
    single = plan.execute(q).potential
    assert single.shape == (900,)
    col = plan.execute(q[:, None]).potential
    assert col.shape == (900, 1)
    assert np.array_equal(col[:, 0], single)
    many = plan.execute(Q).potential
    assert many.shape == (900, 5)
    for j in range(5):
        ref = plan.execute(np.ascontiguousarray(Q[:, j])).potential
        assert np.max(np.abs(many[:, j] - ref)) <= 1e-12 * np.abs(ref).max()


def test_plan_m2l_dirs_gauge(rng):
    pts = uniform_cube(400, seed=1)
    REGISTRY.reset()
    tracing.enable()
    try:
        plan = Treecode(pts, rng.uniform(-1, 1, 400), leaf_size=16).compile_plan(
            mode="cluster"
        )
        assert plan.n_box_pairs > 0
        plan.execute(np.ones(400))
        assert REGISTRY.gauge("plan_m2l_dirs").value == len(plan._m2l_dirs)
        pairs = REGISTRY.counter("plan_m2l_pairs", labelnames=("backend",))
        assert pairs.labels(backend="lattice").value >= plan.n_box_pairs
    finally:
        tracing.disable()
        tracing.get_tracer().clear()
        REGISTRY.reset()


# ----------------------------------------------------------------------
# Folded per-key M2L of cluster plans
# ----------------------------------------------------------------------


class _CycleDegree(DegreePolicy):
    """Degrees 4..8 cycling over node ids: every degree meets every
    level and octant."""

    def degrees(self, tree):
        return 4 + np.arange(tree.n_nodes, dtype=np.int64) % 5


def _adaptive_cloud(n=1500, seed=11):
    """A Gaussian blob inside a sparse uniform cloud: leaves at many
    levels, so far pairs step up and down between levels."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [0.5 + 0.08 * rng.standard_normal((n - n // 4, 3)), rng.random((n // 4, 3))]
    )
    return pts, rng.uniform(-1, 1, n)


def _pair_buckets(g):
    """Per pair of group ``g`` (in GEMM order): its (octant, target) bucket."""
    bucket = np.empty(g.cols.size, dtype=np.int64)
    bucket[g.red.indices] = np.repeat(
        np.arange(g.red.shape[0]), np.diff(g.red.indptr)
    )
    return bucket


def _folded_vs_per_pair(plan, q):
    """Largest deviation of any group's folded M2L from per-pair
    ``translations.m2l`` over the same box-centre offsets summed per
    target, relative to each target's largest local coefficient; the
    octants, level steps and degrees the groups covered; and whether any
    run was past the frozen operator share.  Offsets are the exact
    lattice ones: box centres accumulate one rounding per level, which
    deep in the tree is large against the box size.  ``q`` may be an
    ``(n, k)`` batch: each column is compared on its own."""
    qs = plan.sort_charges(q)
    folded = plan.form_coefficients(qs)
    raw = plan._p2m_operands(qs)  # interleaved, unscaled
    tree = plan.tc.tree
    _, ic, unit = _box_view(tree)
    worst, octs, steps, degs = 0.0, set(), set(), set()
    rebuilt = False
    for u in plan._units:
        for g in u.groups:
            got = plan._m2l_group(folded[g.p][0], g)
            # runs past the frozen operator share, applied per pair
            Lr = np.zeros((tree.n_nodes,) + got.shape[1:])
            plan._m2l_rebuilt(folded, _FarUnit(0, 0, 0, groups=[g]), Lr)
            got = _complex(got + Lr[g.utgt])
            rebuilt |= bool(plan._m2l_rebuild[g.ops].any())
            X = raw[g.p][0]
            rows = g.cols % X.shape[0]
            bucket = _pair_buckets(g)
            t = bucket % g.utgt.size
            srcs = plan._operand_nodes[g.p][rows]
            tgts = g.utgt[t]
            C = _complex(X[rows])
            d = unit * (ic[srcs] - ic[tgts])
            if C.ndim == 3:  # (pairs, k, nc): one displacement row per column
                d = np.repeat(d, C.shape[1], axis=0)
            L = m2l(C.reshape(-1, C.shape[-1]), d, g.p).reshape(C.shape[:-1] + (-1,))
            want = np.zeros_like(got)
            np.add.at(want, t, L[..., : ncoef(g.p)])
            scale = np.abs(want).max(axis=-1, keepdims=True)
            worst = max(worst, float((np.abs(got - want) / scale).max()))
            octs |= set((bucket // g.utgt.size).tolist())
            steps |= set((tree.level[srcs] - tree.level[tgts]).tolist())
            degs.add(g.p)
    return worst, octs, steps, degs, rebuilt


def test_folded_m2l_matches_per_pair_reference():
    """Folded operators, reflected operands and octant buckets against
    per-pair ``translations.m2l`` on an adaptive cloud covering all 8
    octants, level steps -1, 0 and +1 and degrees 4..8."""
    pts, q = _adaptive_cloud()
    tc = Treecode(pts, q, degree_policy=_CycleDegree(), leaf_size=8)
    plan = tc.compile_plan(mode="cluster")
    assert plan.n_box_pairs > 0
    worst, octs, steps, degs, _ = _folded_vs_per_pair(plan, q)
    assert octs == set(range(8))
    assert {-1, 0, 1} <= steps
    assert degs == {4, 5, 6, 7, 8}
    assert worst <= 1e-13
    # and with most keys past the frozen operator share
    tight = tc.compile_plan(mode="cluster", memory_budget=1 << 20)
    worst, _, _, _, rebuilt = _folded_vs_per_pair(tight, q)
    assert rebuilt and worst <= 1e-13
    # fewer operators than pairs: keys are shared across levels
    assert len(plan._m2l_ops) < plan.n_box_pairs // 10


def test_keys_exact_at_max_depth():
    """On a tree of depth ``MAX_DEPTH`` the level-normalised keys drop no
    bits, fit int64, and their ``κ`` times the box half sizes give the
    pair distance bitwise; the folded M2L still matches the reference."""
    rng = np.random.default_rng(4)
    # a dozen points at every scale 2^-k around one centre
    pts = np.concatenate(
        [0.3 + 2.0**-k * (2 * rng.random((12, 3)) - 1) for k in range(24)]
    )
    q = rng.uniform(-1, 1, pts.shape[0])
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), leaf_size=4)
    tree = tc.tree
    assert tree.height - 1 == MAX_DEPTH
    plan = tc.compile_plan(mode="cluster")
    view, ic, unit = _box_view(tree)
    pairs = dual_traverse(view, tc.alpha)
    fs, ft = pairs.far_src, pairs.far_tgt
    key, _, r2 = lattice_keys(ic[fs] - ic[ft])
    ls, lt = tree.level[fs], tree.level[ft]
    r2f, step = level_keys(r2, ls, lt, MAX_DEPTH)
    assert r2.max() < 2**62
    lf = np.maximum(ls, lt).astype(np.int64)
    np.testing.assert_array_equal(r2f << 2 * (MAX_DEPTH - lf), r2)
    assert max(ls.max(), lt.max()) >= MAX_DEPTH - 1
    op_id = _key_ids(key, r2f, step)[0]
    rho = unit * np.sqrt(r2.astype(np.float64))
    kappa = plan._m2l_kappa[op_id]
    e = plan._lat_exp
    np.testing.assert_array_equal(np.ldexp(kappa[:, 0], (e - ls).astype(np.int32)), rho)
    np.testing.assert_array_equal(np.ldexp(kappa[:, 1], (e - lt).astype(np.int32)), rho)
    worst, _, steps, _, _ = _folded_vs_per_pair(plan, q)
    assert worst <= 1e-13 and len(steps) > 1


@pytest.mark.parametrize("r2max", [40, 2**50])
def test_key_ids_match_row_unique(r2max):
    """Key numbering agrees with a row-wise ``np.unique``, also where
    the three columns would overflow one packed int64."""
    rng = np.random.default_rng(1)
    n = 4000
    dkey = rng.integers(0, 2**62, 60)[rng.integers(0, 60, n)]
    r2f = rng.integers(0, 30, n)
    r2f[::7] = r2max
    step = rng.integers(-3, 4, n)
    ids, first, dirs, kdir = _key_ids(dkey, r2f, step)
    rows = np.stack([dkey, r2f, step], axis=1)
    _, ref_first, ref_ids = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    np.testing.assert_array_equal(ids, ref_ids.ravel())
    np.testing.assert_array_equal(rows[first], rows[ref_first])
    np.testing.assert_array_equal(dirs[kdir], dkey[first])


def test_batch_columns_agree_on_adaptive_cloud():
    """``(n,)``, ``(n, 1)`` and ``(n, k)`` charges agree column by column
    to 1e-12 of the maximum on the adaptive cloud."""
    pts, q = _adaptive_cloud(800, seed=3)
    Q = np.random.default_rng(3).uniform(-1, 1, (800, 4))
    plan = Treecode(pts, q, degree_policy=_CycleDegree(), leaf_size=8).compile_plan(
        mode="cluster"
    )
    assert plan.n_box_pairs > 0
    single = plan.execute(q).potential
    assert np.array_equal(plan.execute(q[:, None]).potential[:, 0], single)
    many = plan.execute(Q).potential
    for j in range(Q.shape[1]):
        ref = plan.execute(np.ascontiguousarray(Q[:, j])).potential
        assert np.max(np.abs(many[:, j] - ref)) <= 1e-12 * np.abs(ref).max()


def _count_builds(monkeypatch, module):
    """Wrap ``module.m2l_operators``; returns the list of built direction
    counts, one entry per call."""
    calls = []
    orig = module.m2l_operators

    def counted(u, p):
        calls.append(len(u))
        return orig(u, p)

    monkeypatch.setattr(module, "m2l_operators", counted)
    return calls


def test_second_compile_builds_no_direction_operator(monkeypatch):
    monkeypatch.setattr(lattice, "_memo", {})
    monkeypatch.setattr(lattice, "_memo_bytes", 0)
    calls = _count_builds(monkeypatch, lattice)
    pts = uniform_cube(900, seed=5)
    q = np.random.default_rng(5).uniform(-1, 1, 900)
    tc = Treecode(pts, q, leaf_size=16)
    first = tc.compile_plan(mode="cluster")
    assert first.n_box_pairs > 0 and sum(calls) > 0
    calls.clear()
    second = tc.compile_plan(mode="cluster")
    assert calls == []
    for A, B in zip(first._m2l_ops, second._m2l_ops):
        assert np.array_equal(A, B)
    assert lattice._memo_bytes <= lattice._MEMO_BYTES


@pytest.mark.parametrize("cap", [0, 200_000])
def test_memo_cap_leaves_results_unchanged(monkeypatch, cap):
    """A memo that holds nothing, or a few operators, evicts oldest
    first and changes no operator or potential."""
    pts = uniform_cube(900, seed=5)
    q = np.random.default_rng(5).uniform(-1, 1, 900)
    tc = Treecode(pts, q, leaf_size=16)
    ref = tc.compile_plan(mode="cluster")
    assert ref.n_box_pairs > 0
    monkeypatch.setattr(lattice, "_memo", {})
    monkeypatch.setattr(lattice, "_memo_bytes", 0)
    monkeypatch.setattr(lattice, "_MEMO_BYTES", cap)
    for _ in range(2):
        plan = tc.compile_plan(mode="cluster")
        assert lattice._memo_bytes <= cap
        assert np.array_equal(plan.execute(q).potential, ref.execute(q).potential)
    if cap:
        assert lattice._memo


def test_rebuilt_operators_once_per_unit_direction(monkeypatch):
    """Past the frozen share, each direction is built once per far unit
    and execute, at the highest degree its runs need; single and batched
    potentials match a plan with every operator frozen."""
    pts = uniform_cube(400, seed=2)
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, 400)
    Q = rng.uniform(-1, 1, (400, 3))
    tc = Treecode(pts, q, degree_policy=_CycleDegree(), leaf_size=16)
    frozen = tc.compile_plan(mode="cluster")
    assert frozen.n_box_pairs > 0
    assert all(T is not None for T in frozen._m2l_ops)
    tight = tc.compile_plan(mode="cluster", memory_budget=1 << 20)
    rebuilt = np.array([T is None for T in tight._m2l_ops])
    assert rebuilt.any()
    want = degrees = 0
    for u in tight._units:
        ops = np.concatenate([g.ops for g in u.groups])
        want += np.unique(tight._m2l_kdir[ops[rebuilt[ops]]]).size
        degrees += sum(
            np.unique(tight._m2l_kdir[g.ops[rebuilt[g.ops]]]).size for g in u.groups
        )
    assert want < degrees  # directions recur across the degree groups
    calls = _count_builds(monkeypatch, cluster)
    got = tight.execute(q).potential
    assert calls == [1] * want
    ref = frozen.execute(q).potential
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(ref).max()
    many, ref_many = tight.execute(Q).potential, frozen.execute(Q).potential
    assert np.max(np.abs(many - ref_many)) <= 1e-13 * np.abs(ref_many).max()


# ----------------------------------------------------------------------
# Whole lattice plans against a per-pair dense plan
# ----------------------------------------------------------------------


def _dense_reference(plan):
    """Swap a cluster plan's lattice GEMMs for per-pair
    ``translations.m2l`` in complex128 over the same box pairs, box
    centres and (octant, target) buckets (single charge vectors only).
    The plan then reads the un-folded operand rows, onto which each
    pair's folded row wraps."""
    centers = plan.tc.tree.center_geom
    plan.form_coefficients = lambda qs: CompiledPlan._p2m_operands(plan, qs)

    def group(X, g):
        nc = ncoef(g.p)
        rows = g.cols % X.shape[0]
        tgts = np.empty(g.cols.size, dtype=np.int64)
        tgts[g.red.indices] = np.repeat(np.tile(g.utgt, 8), np.diff(g.red.indptr))
        srcs = plan._operand_nodes[g.p][rows]
        C = X[rows, 0::2] + 1j * X[rows, 1::2]
        L = m2l(C, centers[srcs] - centers[tgts], g.p)
        Z = g.red @ _interleaved(L[:, :nc])
        return Z.reshape(8, -1, Z.shape[-1]).sum(axis=0)

    plan._m2l_group = group
    plan._m2l_rebuilt = lambda ctx, u, L: None  # ``group`` covers every run
    return plan


class TestClusterLatticeM2L:
    """The cluster plan's translation kernel (one lattice operator per
    canonical direction) against the per-pair dense reference."""

    def test_c128_agrees_with_dense_and_ledger_unchanged(self, small_cloud):
        """tol-mode lattice plans must agree with the complex128 dense
        reference to 1e-12 and leave the a-posteriori ledger bitwise
        identical."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        tol = 2e-4
        kw = dict(mode="cluster", tol=tol, accumulate_bounds=True)
        dense = _dense_reference(tc.compile_plan(**kw)).execute(q)
        lat_plan = tc.compile_plan(**kw)
        assert lat_plan.n_box_pairs > 0
        lat = lat_plan.execute(q)
        scale = np.abs(dense.potential).max()
        assert np.abs(dense.potential - lat.potential).max() <= 1e-12 * scale
        np.testing.assert_array_equal(dense.error_bound, lat.error_bound)
        # containment chain holds under the lattice kernel
        exact = pairwise_potential(pts, pts, q, exclude=np.arange(len(q)))
        err = np.abs(lat.potential - exact).max()
        assert err <= lat.error_bound.max() <= tol

    def test_fixed_degree_parity_within_rounding(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(6), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster")
        dense = _dense_reference(tc.compile_plan(mode="cluster"))
        lat, ref = plan.execute(q), dense.execute(q)
        scale = np.abs(ref.potential).max()
        assert np.abs(ref.potential - lat.potential).max() <= 1e-12 * scale

    def test_gradient_parity(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16)
        kw = dict(mode="cluster", compute="both")
        dense = _dense_reference(tc.compile_plan(**kw)).execute(q)
        lat = tc.compile_plan(**kw).execute(q)
        gs = np.abs(dense.gradient).max()
        assert np.abs(dense.gradient - lat.gradient).max() <= 1e-12 * gs

    def test_operators_shared_by_direction(self, small_cloud):
        """One operator per canonical lattice direction, shared by every
        unit, level and octant, and counted in the plan's memory."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster")
        assert plan.n_box_pairs > 0
        ops = {op for u in plan._units for g in u.groups for op in g.ops.tolist()}
        assert ops == set(range(len(plan._m2l_ops)))
        assert len(plan._m2l_ops) < plan.n_box_pairs // 10
        assert plan.memory_bytes >= sum(T.nbytes for T in plan._m2l_ops)

    def test_backend_validation(self, small_cloud):
        """Cluster plans have no translation-backend knob."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5, leaf_size=16)
        with pytest.raises(TypeError, match="translation_backend"):
            tc.compile_plan(mode="cluster", translation_backend="dense")

    def test_serial_thread_identical(self, small_cloud):
        plan = Treecode(
            *small_cloud, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16
        ).compile_plan(mode="cluster")
        q = small_cloud[1]
        serial = plan.execute(q)
        for n_threads in (2, 3):
            thr = evaluate_plan_parallel(plan, q, n_threads=n_threads, retry=FAST)
            np.testing.assert_array_equal(serial.potential, thr.potential)

    def test_block_errors_recovered_exactly(self, small_cloud, injector_guard):
        pts, q = small_cloud
        plan = Treecode(
            pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16
        ).compile_plan(mode="cluster")
        set_injector(None)
        clean = evaluate_plan_parallel(plan, q, n_threads=2)
        set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=3))
        faulty = evaluate_plan_parallel(plan, q, n_threads=2, retry=FAST)
        np.testing.assert_array_equal(faulty.potential, clean.potential)
        assert faulty.n_retries + faulty.n_fallbacks > 0


class TestBatchedM2LDedup:
    """Pairs sharing a lattice direction share one operator, keyed at
    compile by exact integer offsets."""

    def test_duplicated_rows_bitwise_equal_unique_build(self, rng):
        """Operators built once per unique direction and gathered are
        bitwise those built row by row: each is an elementwise function
        of its direction."""
        p = 5
        base = rng.integers(-4, 5, size=(4, 3))
        base[np.all(base == 0, axis=1)] = [1, 2, 3]
        d = base[rng.integers(0, 4, size=48)] * rng.integers(1, 4, size=(48, 1))
        key = lattice_keys(d)[0]
        uk, inv = np.unique(key, return_inverse=True)
        assert uk.size <= 4
        got = m2l_operators(unpack_keys(uk), p)[inv]
        want = np.concatenate(
            [m2l_operators(unpack_keys(key[i : i + 1]), p) for i in range(48)]
        )
        np.testing.assert_array_equal(got, want)

    def test_small_batches_skip_dedup(self, rng):
        """A one-pair direction is an operator like any other: the
        kernel matches ``translations.m2l`` for a single offset."""
        p = 3
        d = np.array([[2, -1, 5]])
        C = _conj_symmetric_rows(rng, 1, p)
        key, octs, r2 = lattice_keys(d)
        T = m2l_operators(unpack_keys(key), p)[0]
        rho = 0.5 * np.sqrt(r2)
        _, inv = scales(p, rho, octs)
        Y = ((_interleaved(C) * inv) @ T) * (inv / rho[:, None])
        want = m2l(C, 0.5 * d, p)
        got = Y[:, 0::2] + 1j * Y[:, 1::2]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_distinct_rows_skip_dedup(self, rng):
        """Distinct directions never share a key; gcd multiples and
        octant mirrors always do."""
        d = rng.integers(-9, 10, size=(64, 3))
        d[np.all(d == 0, axis=1)] = [1, 0, 0]
        key = lattice_keys(d)[0]
        a = np.abs(d)
        canon = a // np.gcd.reduce(a, axis=1)[:, None]
        assert np.unique(key).size == np.unique(canon, axis=0).shape[0]
        np.testing.assert_array_equal(lattice_keys(-3 * d)[0], key)

    def test_execute_never_dedups(self, rng, monkeypatch):
        """Cluster execute reuses the compile-time decisions: a
        fixed-degree plan calls no ``np.unique`` per matvec, and results
        are unchanged."""
        from repro.perf import cluster as cl

        pts = rng.random((400, 3))
        q = rng.uniform(-1, 1, 400)
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster")
        ref = plan.execute(q).potential
        calls = []
        real_unique = np.unique

        def spy(*a, **k):
            calls.append(k.get("axis"))
            return real_unique(*a, **k)

        monkeypatch.setattr(cl.np, "unique", spy)
        got = plan.execute(q).potential
        assert calls == []
        np.testing.assert_array_equal(got, ref)
