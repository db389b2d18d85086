"""Lattice M2L/L2L of box-centred cluster plans: the dense per-direction
operators against the reference translations, the box-centred view of
the octree, batch shapes and the Theorem-1 containment chain of
tolerance-compiled plans on degenerate geometry."""

import itertools

import numpy as np
import pytest

from repro import FixedDegree, Treecode
from repro.data.distributions import gaussian_blob, uniform_cube
from repro.multipole.harmonics import ncoef
from repro.multipole.lattice import (
    l2l_operator,
    lattice_keys,
    m2l_operators,
    scales,
    unpack_keys,
)
from repro.multipole.translations import l2l, m2l
from repro.obs import REGISTRY, tracing
from repro.perf.cluster import _box_view


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
    plan = Treecode(pts, q).compile_plan(mode="cluster", cache_dir="")
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
        plan = Treecode(pts, rng.uniform(-1, 1, 400)).compile_plan(
            mode="cluster", cache_dir=""
        )
        plan.execute(np.ones(400))
        assert REGISTRY.gauge("plan_m2l_dirs").value == len(plan._m2l_ops)
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
