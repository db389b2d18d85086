"""Tests for the Cartesian solid-harmonic kernels (regular/irregular
tables, ladder gradients) against the angular reference
``sph_harmonics`` × ``power_table``, and the evaluators built on them on
degenerate geometry."""

import numpy as np
import pytest

from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.direct import direct_gradient
from repro.multipole.expansion import l2p, m2p, p2l, p2m
from repro.multipole.harmonics import (
    cart_to_sph,
    coef_index,
    degree_of_index,
    irregular_solid,
    ladder_terms,
    ncoef,
    power_table,
    regular_solid,
    solid_gradient,
    sph_harmonics,
)
from repro.multipole.translations import (
    _iphase_grid,
    _regular_grid,
    _singular_grid,
    _sq_grid,
    to_full_grid,
)
from repro.multipole.lattice import _singular_grid as cluster_grid

DEGREES = [0, 1, 2, 5, 12, 20]


def _offsets(kind: str, rng) -> np.ndarray:
    if kind == "random":
        return rng.normal(size=(40, 3))
    if kind == "on-axis":  # both poles, x = y = 0 exactly
        return np.array([[0.0, 0.0, 1.3], [0.0, 0.0, -0.7], [0.0, 0.0, 4.0]])
    if kind == "tiny":
        return rng.normal(size=(10, 3)) * 1e-8
    return rng.normal(size=(10, 3)) * 1e6  # large


def _reference(xyz: np.ndarray, p: int):
    """Batch-last ``r^n Y`` and ``Y / r^{n+1}`` from the angular path."""
    r, ct, phi = cart_to_sph(xyz)
    ns, _ = degree_of_index(p)
    Y = sph_harmonics(ct, phi, p)
    reg = (Y * power_table(r, p)[:, ns]).T
    irr = (Y * power_table(1.0 / r, p + 1)[:, ns + 1]).T
    # per (degree, point) scale: sum_m |Y_n^m|^2 over all m is 1, so
    # r^n and r^-(n+1) are the norms of a degree's row
    return reg, irr, power_table(r, p)[:, ns].T, power_table(1.0 / r, p + 1)[:, ns + 1].T


@pytest.mark.parametrize("p", DEGREES)
@pytest.mark.parametrize("kind", ["random", "on-axis", "tiny", "large"])
def test_tables_match_angular_reference(p, kind, rng):
    xyz = _offsets(kind, rng)
    reg, irr, sreg, sirr = _reference(xyz, p)
    R = regular_solid(xyz, p)
    I = irregular_solid(xyz, p)
    assert R.shape == I.shape == (ncoef(p), xyz.shape[0])
    assert np.max(np.abs(R - reg) / sreg) <= 1e-13
    assert np.max(np.abs(I - irr) / sirr) <= 1e-13


def test_on_axis_orders_vanish_exactly():
    xyz = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -3.0]])
    _, ms = degree_of_index(9)
    for T in (regular_solid(xyz, 9), irregular_solid(xyz, 9)):
        assert np.all(T[ms > 0] == 0.0)
        assert np.all(np.isfinite(T))


def test_regular_table_at_origin_is_exact():
    R = regular_solid(np.zeros((2, 3)), 7)
    expect = np.zeros(ncoef(7), dtype=np.complex128)
    expect[0] = 1.0
    assert np.array_equal(R[:, 0], expect)
    assert np.array_equal(R[:, 1], expect)


def _sq(n: int, m: int) -> float:
    """sqrt((n-m)!(n+m)!) — the library-to-unnormalized scale."""
    from math import factorial

    return float(np.sqrt(factorial(n - abs(m)) * factorial(n + abs(m))))


def _fd(f, xyz, h):
    """Central differences of ``f`` (batch-last output) along x, y, z."""
    return [
        (f(xyz + h * e) - f(xyz - h * e)) / (2 * h) for e in np.eye(3)
    ]


def test_irregular_ladder_identities(rng):
    """∂z O_n^m = -O_{n+1}^m, (∂x+i∂y) O_n^m = -O_{n+1}^{m+1} and
    (∂x-i∂y) O_n^m = O_{n+1}^{m-1}, with O = sq · I."""
    p = 6
    xyz = rng.normal(size=(8, 3)) + np.array([0.0, 0.0, 3.0])

    def O(x):
        I = irregular_solid(x, p + 1)
        return np.stack(
            [I[coef_index(n, m)] * _sq(n, m) for n in range(p + 2) for m in range(n + 1)]
        )

    dx, dy, dz = _fd(O, xyz, 1e-5)
    T = O(xyz)
    for n in range(p + 1):
        for m in range(n + 1):
            i = coef_index(n, m)
            scale = np.abs(T[coef_index(n + 1, 0)]).max() * (n + 2) ** 2
            assert np.allclose(dz[i], -T[coef_index(n + 1, m)], rtol=0, atol=1e-7 * scale)
            assert np.allclose(
                dx[i] + 1j * dy[i], -T[coef_index(n + 1, m + 1)], rtol=0, atol=1e-7 * scale
            )
            if m >= 1:
                assert np.allclose(
                    dx[i] - 1j * dy[i], T[coef_index(n + 1, m - 1)], rtol=0, atol=1e-7 * scale
                )


def test_regular_ladder_identities(rng):
    """∂z E_n^m = E_{n-1}^m, (∂x+i∂y) E_n^m = -E_{n-1}^{m+1} and
    (∂x-i∂y) E_n^m = E_{n-1}^{m-1}, with E = R / sq."""
    p = 6
    xyz = rng.normal(size=(8, 3)) * 0.5

    def E(x):
        R = regular_solid(x, p)
        return np.stack(
            [R[coef_index(n, m)] / _sq(n, m) for n in range(p + 1) for m in range(n + 1)]
        )

    dx, dy, dz = _fd(E, xyz, 1e-6)
    T = E(xyz)

    def at(n, m):
        return T[coef_index(n, m)] if 0 <= m <= n else 0.0

    for n in range(1, p + 1):
        for m in range(n + 1):
            i = coef_index(n, m)
            assert np.allclose(dz[i], at(n - 1, m), rtol=0, atol=1e-8)
            assert np.allclose(dx[i] + 1j * dy[i], -at(n - 1, m + 1), rtol=0, atol=1e-8)
            if m >= 1:
                assert np.allclose(dx[i] - 1j * dy[i], at(n - 1, m - 1), rtol=0, atol=1e-8)


@pytest.mark.parametrize("regular", [False, True])
def test_solid_gradient_rows_match_finite_difference(regular, rng):
    """Rows from :func:`solid_gradient` differentiate a real expansion
    ``Re sum w C T`` (conjugate-symmetric ``C``) on and off the axis."""
    p = 7
    ns, ms = degree_of_index(p)
    C = rng.normal(size=ncoef(p)) + 1j * rng.normal(size=ncoef(p))
    C[ms == 0] = C[ms == 0].real
    w = np.where(ms == 0, 1.0, 2.0)
    if regular:
        xyz = np.concatenate([rng.normal(size=(6, 3)) * 0.3, [[0.0, 0.0, 0.4]]])
        table, q = regular_solid, p
    else:
        xyz = np.concatenate([rng.normal(size=(6, 3)) * 3, [[0.0, 0.0, -2.0]]])
        table, q = irregular_solid, p + 1
    G = solid_gradient(table(xyz, q), p, regular)
    got = np.einsum("c,act->ta", C, G).real
    fd = np.stack(_fd(lambda x: ((w * C) @ table(x, p)).real, xyz, 1e-6), axis=-1)
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-9 * np.abs(got).max())


def test_ladder_terms_stay_in_table():
    for p in range(6):
        for regular, q in ((True, p), (False, p + 1)):
            for k, dst, src, coef in ladder_terms(p, regular):
                assert 0 <= dst and dst + coef.size <= ncoef(p)
                assert 0 <= src and src + coef.size <= ncoef(max(q, 0))


# ---------------------------------------------------------------------------
# evaluators on degenerate geometry: targets on the polar axis of every
# expansion, and a target at its own (local) expansion center
# ---------------------------------------------------------------------------


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _collinear_z(rng):
    n = 300
    pts = np.zeros((n, 3))
    pts[:, 2] = np.sort(rng.random(n))
    return pts, rng.uniform(-1, 1, n)


def _single_particle_leaf(rng):
    pts = rng.random((300, 3)) * 0.5
    pts = np.concatenate([pts, [[0.95, 0.95, 0.95]]])
    return pts, rng.uniform(-1, 1, pts.shape[0])


@pytest.mark.parametrize("geometry", [_collinear_z, _single_particle_leaf])
def test_gradients_on_degenerate_geometry(geometry, rng):
    pts, q = geometry(rng)
    tc = Treecode(pts, q, degree_policy=FixedDegree(7), alpha=0.4, leaf_size=4)
    tree = tc.tree
    if geometry is _collinear_z:
        # every expansion center sits on the z axis with the targets
        assert np.all(tree.center_exp[:, :2] == 0.0)
    else:
        leaves = tree.leaf_ids()
        single = leaves[tree.end[leaves] - tree.start[leaves] == 1]
        assert single.size
        # each lone particle is its leaf's expansion center (to rounding)
        assert np.allclose(
            tree.center_exp[single], tree.points[tree.start[single]], rtol=0, atol=1e-12
        )
    ref = direct_gradient(pts, q)

    res = tc.evaluate(compute="both")
    assert np.all(np.isfinite(res.gradient))
    assert _rel(res.gradient, ref) < 1e-4

    res = tc.compile_plan(compute="both", cache_dir="").execute(q)
    assert np.all(np.isfinite(res.gradient))
    assert _rel(res.gradient, ref) < 1e-4

    res = tc.compile_plan(mode="cluster", compute="both", cache_dir="").execute(q)
    assert np.all(np.isfinite(res.gradient))
    assert _rel(res.gradient, ref) < 1e-2


def test_converted_kernels_match_angular_formulation(rng):
    """Every kernel routed through the solid tables agrees with its
    angular (``sph_harmonics`` × ``power_table``) formulation to 1e-13
    relative in complex128."""
    p = 9
    ns, ms = degree_of_index(p)
    w = np.where(ms == 0, 1.0, 2.0)
    src = rng.normal(size=(30, 3)) * 0.4
    q = rng.uniform(-1, 1, 30)
    far = rng.normal(size=(25, 3)) * 4.0
    near = rng.normal(size=(25, 3)) * 0.3

    def ang(x):
        r, ct, phi = cart_to_sph(x)
        return r, sph_harmonics(ct, phi, p)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    r, Y = ang(src)
    Rs = Y * power_table(r, p)[:, ns]
    assert close(p2m(src, q, p), q @ np.conj(Rs))
    M = p2m(src, q, p)
    r, Y = ang(far)
    If = Y * power_table(1.0 / r, p + 1)[:, ns + 1]
    ref = np.real(If @ (w * M))
    assert close(m2p(M, far, p), ref)
    L = p2l(far, q[:25], p)
    assert close(L, q[:25] @ np.conj(If))
    r, Y = ang(near)
    assert close(l2p(L, near, p), np.real((Y * power_table(r, p)[:, ns]) @ (w * L)))
    # translation grids
    r, Y = ang(far)
    assert close(_regular_grid(far, p, conj=True), to_full_grid(np.conj(Y) * power_table(r, p)[:, ns], p))
    assert close(_singular_grid(far, p), to_full_grid(If, p))
    # cluster M2L singular grid (degree 2p), complex128
    pc = 4
    nt, mt = degree_of_index(2 * pc)
    r, ct, phi_ = cart_to_sph(far)
    Yt = sph_harmonics(ct, phi_, 2 * pc) * power_table(1.0 / r, 2 * pc + 1)[:, nt + 1]
    scale = (_iphase_grid(2 * pc, +1) * _sq_grid(2 * pc))
    full = to_full_grid(Yt, 2 * pc) * scale
    got = cluster_grid(far, pc, np.complex128)
    assert close(np.moveaxis(got, -1, 0), full)
