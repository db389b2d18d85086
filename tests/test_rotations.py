"""Tests for the rotation library: Wigner-d rotation operators, the
direction-keyed :class:`RotationCache`, and the axial O(p^3) kernels with
their ``*_rotated`` drop-ins against the dense translations."""

import numpy as np
import pytest

from repro.multipole.harmonics import cart_to_sph, ncoef, sph_harmonics
from repro.multipole.rotations import (
    RotationCache,
    build_rotation_operators,
    canonical_directions,
    direction_keys,
    rotate_packed,
    wigner_d,
)
from repro.multipole.translations import (
    axial_l2l,
    axial_m2l,
    axial_m2m,
    l2l,
    l2l_rotated,
    m2l,
    m2l_rotated,
    m2m,
    m2m_rotated,
)


def _unit_dirs(rng, k):
    u = rng.standard_normal((k, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _conj_symmetric_rows(rng, b, p):
    """Random packed rows with real m=0 columns (physical expansions)."""
    C = rng.standard_normal((b, ncoef(p))) + 1j * rng.standard_normal(
        (b, ncoef(p))
    )
    for n in range(p + 1):
        C[:, n * (n + 1) // 2] = C[:, n * (n + 1) // 2].real
    return C


# ----------------------------------------------------------------------
# Wigner-d construction and packed rotation operators
# ----------------------------------------------------------------------


class TestWignerD:
    def test_degree_one_closed_form(self):
        beta = np.array([0.3, 1.2, 2.7])
        d = wigner_d(beta, 1)[1]
        c, s = np.cos(beta), np.sin(beta)
        ref = np.empty((3, 3, 3))
        ref[:, 2, 2] = (1 + c) / 2
        ref[:, 2, 1] = -s / np.sqrt(2)
        ref[:, 2, 0] = (1 - c) / 2
        ref[:, 1, 2] = s / np.sqrt(2)
        ref[:, 1, 1] = c
        ref[:, 1, 0] = -s / np.sqrt(2)
        ref[:, 0, 2] = (1 - c) / 2
        ref[:, 0, 1] = s / np.sqrt(2)
        ref[:, 0, 0] = (1 + c) / 2
        np.testing.assert_allclose(d, ref, atol=1e-15)

    def test_blocks_orthogonal(self):
        beta = np.array([0.1, 0.9, 2.2, 3.0])
        mats = wigner_d(beta, 8)
        for n, blk in enumerate(mats):
            eye = np.eye(2 * n + 1)
            for M in blk:
                np.testing.assert_allclose(M @ M.T, eye, atol=1e-12)

    def test_rotation_matches_brute_force_operator(self, rng):
        """Packed rotation == least-squares operator fitted from the
        harmonics themselves (pins the phase/transpose convention)."""
        p = 4
        u = _unit_dirs(rng, 1)[0]
        ct = np.clip(u[2], -1, 1)
        th, ph = np.arccos(ct), np.arctan2(u[1], u[0])
        cz, sz = np.cos(-ph), np.sin(-ph)
        Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
        cy, sy = np.cos(-th), np.sin(-th)
        Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        R = Ry @ Rz  # maps u onto +z

        def full_row(v, n):
            _, c, f = cart_to_sph(np.asarray(v, float).reshape(1, 3))
            Yp = sph_harmonics(c, f, n)[0]
            row = np.empty(2 * n + 1, complex)
            for m in range(n + 1):
                row[n + m] = Yp[n * (n + 1) // 2 + m]
                row[n - m] = np.conj(row[n + m])
            return row

        ops = build_rotation_operators(u[None, :], p)[0]
        C = _conj_symmetric_rows(rng, 1, p)
        Cr = rotate_packed(C, ops, p)
        for n in range(1, p + 1):
            V = rng.standard_normal((6 * n + 8, 3))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            M1 = np.array([np.conj(full_row(v, n)) for v in V])
            M2 = np.array([np.conj(full_row(R @ v, n)) for v in V])
            AT, *_ = np.linalg.lstsq(M1, M2, rcond=None)
            lo = n * (n + 1) // 2
            full = np.empty(2 * n + 1, complex)
            for m in range(n + 1):
                full[n + m] = C[0, lo + m]
                full[n - m] = np.conj(C[0, lo + m])
            want = AT.T @ full
            got = Cr[0, lo : lo + n + 1]
            np.testing.assert_allclose(got, want[n:], atol=1e-10)

    @pytest.mark.parametrize("p", range(2, 13))
    def test_round_trip_identity(self, rng, p):
        """rotate -> inverse-rotate returns the input to <= 1e-14."""
        for u in _unit_dirs(rng, 3):
            ops = build_rotation_operators(u[None, :], p)[0]
            C = _conj_symmetric_rows(rng, 5, p)
            back = rotate_packed(rotate_packed(C, ops, p), ops, p, inverse=True)
            assert np.abs(back - C).max() <= 1e-14 * max(1.0, np.abs(C).max())

    def test_lower_degree_reuses_higher_operator(self, rng):
        u = _unit_dirs(rng, 1)
        hi = build_rotation_operators(u, 9)[0]
        lo = build_rotation_operators(u, 4)[0]
        C = _conj_symmetric_rows(rng, 3, 4)
        np.testing.assert_array_equal(
            rotate_packed(C, hi, 4), rotate_packed(C, lo, 4)
        )
        with pytest.raises(ValueError, match="operator built for"):
            rotate_packed(_conj_symmetric_rows(rng, 1, 11), hi, 11)


class TestRotationCache:
    def test_quantized_dedup_and_rebuild(self, rng):
        cache = RotationCache()
        u = _unit_dirs(rng, 4)
        ids = cache.ids_for(u, 3)
        # directions differing by < quantum share an id and an operator
        jit = u + rng.standard_normal(u.shape) * 1e-16
        jit /= np.linalg.norm(jit, axis=1, keepdims=True)
        np.testing.assert_array_equal(cache.ids_for(jit, 3), ids)
        assert len(cache) == 4 and cache.built == 4
        assert cache.max_p == 3
        # a higher-degree request rebuilds in place, ids stay stable
        np.testing.assert_array_equal(cache.ids_for(u, 7), ids)
        assert len(cache) == 4 and cache.max_p == 7
        assert cache.nbytes > 0

    def test_canonical_directions_are_deterministic_units(self, rng):
        u = _unit_dirs(rng, 16)
        v = canonical_directions(direction_keys(u))
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.abs(v - u).max() <= 1e-12


# ----------------------------------------------------------------------
# Axial kernels and the rotated drop-in wrappers
# ----------------------------------------------------------------------


class TestAxialKernels:
    @pytest.mark.parametrize("p_src,p_loc", [(4, 4), (6, 3), (3, 7)])
    def test_axial_m2l_matches_dense_on_axis(self, rng, p_src, p_loc):
        C = _conj_symmetric_rows(rng, 6, p_src)
        rho = rng.uniform(2.0, 5.0, 6)
        got = axial_m2l(C, rho, p_src, p_loc)
        want = np.stack(
            [
                m2l(C[i], np.array([0.0, 0.0, rho[i]]), p_src, p_loc).reshape(-1)
                for i in range(6)
            ]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "axial,dense", [(axial_m2m, m2m), (axial_l2l, l2l)], ids=["m2m", "l2l"]
    )
    def test_axial_shifts_match_dense_on_axis(self, rng, axial, dense):
        p = 6
        C = _conj_symmetric_rows(rng, 5, p)
        rho = rng.uniform(0.5, 2.0, 5)
        got = axial(C, rho, p)
        want = np.stack(
            [
                dense(C[i], np.array([0.0, 0.0, rho[i]]), p).reshape(-1)
                for i in range(5)
            ]
        )
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("p", [3, 6, 10])
    def test_m2l_rotated_matches_dense(self, rng, p):
        B = 7
        C = _conj_symmetric_rows(rng, B, p)
        d = rng.standard_normal((B, 3)) * 2.0 + 3.0
        want = np.stack([m2l(C[i], d[i], p).reshape(-1) for i in range(B)])
        got = m2l_rotated(C, d, p)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    def test_m2l_rotated_rectangular_degrees(self, rng):
        p_src, p_loc = 6, 3
        C = _conj_symmetric_rows(rng, 4, p_src)
        d = rng.standard_normal((4, 3)) + 3.0
        want = np.stack(
            [m2l(C[i], d[i], p_src, p_loc).reshape(-1) for i in range(4)]
        )
        got = m2l_rotated(C, d, p_src, p_loc)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize(
        "rotated,dense", [(m2m_rotated, m2m), (l2l_rotated, l2l)],
        ids=["m2m", "l2l"],
    )
    def test_shift_wrappers_match_dense(self, rng, rotated, dense):
        p = 8
        B = 6
        C = _conj_symmetric_rows(rng, B, p)
        t = rng.standard_normal((B, 3))
        want = np.stack([dense(C[i], t[i], p).reshape(-1) for i in range(B)])
        got = rotated(C, t, p)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    def test_zero_shift_is_identity(self, rng):
        p = 5
        C = _conj_symmetric_rows(rng, 3, p)
        t = np.zeros((3, 3))
        t[1] = [0.1, -0.2, 0.3]
        got = m2m_rotated(C, t, p)
        np.testing.assert_array_equal(got[0], C[0])
        np.testing.assert_array_equal(got[2], C[2])
        want1 = m2m(C[1], t[1], p).reshape(-1)
        assert np.abs(got[1] - want1).max() <= 1e-12 * np.abs(want1).max()

    def test_shared_cache_reused_across_calls(self, rng):
        cache = RotationCache()
        p = 4
        C = _conj_symmetric_rows(rng, 5, p)
        d = np.tile(np.array([[1.0, 2.0, 2.0]]), (5, 1))
        m2l_rotated(C, d, p, cache=cache)
        built = cache.built
        assert built == 1  # five identical directions -> one operator
        m2l_rotated(C, d, p, cache=cache)
        assert cache.built == built  # second call builds nothing
