"""Lattice M2L/L2L of box-centred cluster plans: the dense per-direction
operators against the reference translations, the plans' folded
per-key M2L against per-pair translations, exact keys at the deepest
tree, the direction-operator memo, operators rebuilt per execute, the
box-centred view of the octree, batch shapes and the Theorem-1
containment chain of tolerance-compiled plans on degenerate geometry."""

import itertools

import numpy as np
import pytest

from repro import FixedDegree, Treecode
from repro.core.degree import DegreePolicy
from repro.data.distributions import gaussian_blob, uniform_cube
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
from repro.perf import cluster
from repro.perf.cluster import _box_view, _FarUnit, _key_ids
from repro.perf.plan import CompiledPlan
from repro.tree.dualtree import dual_traverse
from repro.tree.morton import MAX_DEPTH


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
    plan = Treecode(pts, q, leaf_size=16).compile_plan(mode="cluster", cache_dir="")
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
            mode="cluster", cache_dir=""
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


def _collinear(n, rng):
    return np.stack([np.zeros(n), np.zeros(n), rng.random(n)], axis=1)


def _coincident(n, rng):
    pts = rng.random((n, 3))
    pts[: n // 4] = pts[0]
    return pts


def _duplicate(n, rng):
    pts = rng.random((n // 2, 3))
    return np.concatenate([pts, pts])


GEOMETRIES = {
    "uniform": lambda n, rng: rng.random((n, 3)),
    "gaussian": lambda n, rng: gaussian_blob(n, seed=int(rng.integers(1 << 30))),
    "collinear": _collinear,
    "coincident": _coincident,
    "duplicate": _duplicate,
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_tol_plan_containment(geometry, tol, rng):
    """Theorem-1 chain of a box-centred tol plan: measured error <=
    a-posteriori ledger <= compile-time prediction <= tol."""
    n = 400
    pts = GEOMETRIES[geometry](n, rng)
    q = rng.uniform(-1, 1, n)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), leaf_size=8)
    plan = tc.compile_plan(mode="cluster", tol=tol, accumulate_bounds=True)
    assert plan.n_box_pairs > 0
    res = plan.execute(q)
    coincide = np.all(pts[:, None, :] == pts[None, :, :], axis=2)
    np.fill_diagonal(coincide, False)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    with np.errstate(divide="ignore"):
        K = np.where(d > 0, 1.0 / d, 0.0)
    exact = K @ q
    assert not np.any(coincide & (K != 0))
    err = np.abs(res.potential - exact).max()
    ledger = res.error_bound.max()
    assert err <= ledger <= plan.predicted_ledger_max * (1 + 1e-12) <= tol * (1 + 1e-12)


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
    deep in the tree is large against the box size."""
    qs = plan.sort_charges(q)
    folded = plan.form_coefficients(qs)
    raw = CompiledPlan.form_coefficients(plan, qs)  # interleaved, unscaled
    tree = plan.tc.tree
    _, ic, unit = _box_view(tree)
    worst, octs, steps, degs = 0.0, set(), set(), set()
    rebuilt = False
    for u in plan._units:
        for g in u.groups:
            got = plan._m2l_group(folded[g.p][0], g)
            # runs past the frozen operator share, applied per pair
            Lr = np.zeros((tree.n_nodes, got.shape[-1]))
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
            L = m2l(C, unit * (ic[srcs] - ic[tgts]), g.p)
            want = np.zeros_like(got)
            np.add.at(want, t, L[:, : ncoef(g.p)])
            scale = np.abs(want).max(axis=1, keepdims=True)
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
    plan = tc.compile_plan(mode="cluster", cache_dir="")
    assert plan.n_box_pairs > 0
    worst, octs, steps, degs, _ = _folded_vs_per_pair(plan, q)
    assert octs == set(range(8))
    assert {-1, 0, 1} <= steps
    assert degs == {4, 5, 6, 7, 8}
    assert worst <= 1e-13
    # and with most keys past the frozen operator share
    tight = tc.compile_plan(mode="cluster", cache_dir="", memory_budget=1 << 20)
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
    plan = tc.compile_plan(mode="cluster", cache_dir="")
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
        mode="cluster", cache_dir=""
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
    first = tc.compile_plan(mode="cluster", cache_dir="")
    assert first.n_box_pairs > 0 and sum(calls) > 0
    calls.clear()
    second = tc.compile_plan(mode="cluster", cache_dir="")
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
    ref = tc.compile_plan(mode="cluster", cache_dir="")
    assert ref.n_box_pairs > 0
    monkeypatch.setattr(lattice, "_memo", {})
    monkeypatch.setattr(lattice, "_memo_bytes", 0)
    monkeypatch.setattr(lattice, "_MEMO_BYTES", cap)
    for _ in range(2):
        plan = tc.compile_plan(mode="cluster", cache_dir="")
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
    frozen = tc.compile_plan(mode="cluster", cache_dir="")
    assert frozen.n_box_pairs > 0
    assert all(T is not None for T in frozen._m2l_ops)
    tight = tc.compile_plan(mode="cluster", cache_dir="", memory_budget=1 << 20)
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
