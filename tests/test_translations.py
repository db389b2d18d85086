"""Tests for M2M / M2L / L2L translation operators."""

import numpy as np

from repro.multipole.expansion import l2p, p2l, p2m
from repro.multipole.harmonics import ncoef
from repro.multipole.translations import from_full_grid, l2l, m2l, m2m, to_full_grid
from repro.multipole.translations import translation_cache_stats


def test_m2m_is_exact(rng):
    """Parent coefficients up to degree p from child coefficients up to p
    must equal direct P2M about the parent center, to machine precision."""
    p = 9
    src = rng.normal(size=(30, 3)) * 0.3
    q = rng.uniform(-1, 1, 30)
    c1 = np.array([0.15, -0.1, 0.2])
    M1 = p2m(src - c1, q, p)
    M0 = m2m(M1, c1[None, :], p)[0]
    assert np.allclose(M0, p2m(src, q, p), rtol=1e-12, atol=1e-12)


def test_m2m_batch(rng):
    p = 6
    src = rng.normal(size=(20, 3)) * 0.2
    q = rng.uniform(-1, 1, 20)
    centers = rng.normal(size=(5, 3)) * 0.3
    coeffs = np.stack([p2m(src - c, q, p) for c in centers])
    out = m2m(coeffs, centers, p)
    direct = p2m(src, q, p)
    for k in range(5):
        assert np.allclose(out[k], direct, rtol=1e-11, atol=1e-12)


def test_m2m_zero_shift_is_identity(rng):
    p = 5
    src = rng.normal(size=(10, 3)) * 0.2
    M = p2m(src, rng.uniform(0, 1, 10), p)
    out = m2m(M, np.zeros((1, 3)), p)[0]
    assert np.allclose(out, M, atol=1e-13)


def test_m2m_composition(rng):
    """Two successive shifts equal one combined shift."""
    p = 7
    src = rng.normal(size=(15, 3)) * 0.2
    q = rng.uniform(-1, 1, 15)
    d1 = np.array([0.3, -0.1, 0.2])
    d2 = np.array([-0.2, 0.25, 0.1])
    M = p2m(src, q, p)
    two = m2m(m2m(M, d1[None], p), d2[None], p)[0]
    one = m2m(M, (d1 + d2)[None], p)[0]
    assert np.allclose(two, one, rtol=1e-11, atol=1e-12)


def test_m2l_approximates_potential(rng):
    p = 10
    center_m = np.array([6.0, 1.0, -1.0])
    src = center_m + rng.normal(size=(25, 3)) * 0.3
    q = rng.uniform(-1, 1, 25)
    M = p2m(src - center_m, q, p)
    L = m2l(M, center_m[None, :], p, p)[0]
    tgt = rng.normal(size=(10, 3)) * 0.3
    d = tgt[:, None, :] - src[None, :, :]
    ref = (1.0 / np.sqrt(np.einsum("tsi,tsi->ts", d, d))) @ q
    assert np.allclose(l2p(L, tgt, p), ref, rtol=1e-5, atol=1e-8)


def test_m2l_converges_with_degree(rng):
    center_m = np.array([5.0, 0.0, 0.0])
    src = center_m + rng.normal(size=(20, 3)) * 0.4
    q = rng.uniform(-1, 1, 20)
    tgt = rng.normal(size=(8, 3)) * 0.4
    d = tgt[:, None, :] - src[None, :, :]
    ref = (1.0 / np.sqrt(np.einsum("tsi,tsi->ts", d, d))) @ q
    errs = []
    for p in (3, 6, 10):
        M = p2m(src - center_m, q, p)
        L = m2l(M, center_m[None, :], p, p)[0]
        errs.append(np.abs(l2p(L, tgt, p) - ref).max())
    assert errs[0] > errs[1] > errs[2]


def test_m2l_mixed_degrees(rng):
    """p_loc < p_src truncates the local side only."""
    center_m = np.array([5.0, 2.0, 1.0])
    src = center_m + rng.normal(size=(15, 3)) * 0.3
    q = rng.uniform(0, 1, 15)
    M = p2m(src - center_m, q, 8)
    L = m2l(M, center_m[None, :], 8, 4)[0]
    assert L.shape == (ncoef(4),)
    tgt = rng.normal(size=(5, 3)) * 0.2
    d = tgt[:, None, :] - src[None, :, :]
    ref = (1.0 / np.sqrt(np.einsum("tsi,tsi->ts", d, d))) @ q
    assert np.allclose(l2p(L, tgt, 4), ref, rtol=1e-2)


def test_l2l_is_exact(rng):
    p = 8
    far = rng.normal(size=(20, 3))
    far = far / np.linalg.norm(far, axis=1, keepdims=True) * 6.0
    q = rng.uniform(-1, 1, 20)
    L = p2l(far, q, p)
    c2 = np.array([0.2, -0.15, 0.1])
    L2 = l2l(L, c2[None, :], p)[0]
    # direct local expansion about the new center
    L2_direct = p2l(far - c2, q, p)
    # l2l is exact as an operator on the (truncated) polynomial, which
    # differs from re-expanding the true field; compare evaluations of
    # the shifted polynomial instead.
    tgt = rng.normal(size=(10, 3)) * 0.1
    assert np.allclose(
        l2p(L2, tgt, p), l2p(L, tgt + c2, p), rtol=1e-11, atol=1e-12
    )
    # and both should be close to the direct local expansion
    assert np.allclose(l2p(L2, tgt, p), l2p(L2_direct, tgt, p), rtol=1e-5, atol=1e-8)


def test_l2l_zero_shift_identity(rng):
    p = 6
    far = rng.normal(size=(10, 3)) + 5.0
    L = p2l(far, rng.uniform(0, 1, 10), p)
    assert np.allclose(l2l(L, np.zeros((1, 3)), p)[0], L, atol=1e-13)


def test_full_grid_roundtrip(rng):
    p = 6
    packed = rng.normal(size=ncoef(p)) + 1j * rng.normal(size=ncoef(p))
    # force m=0 entries real (conjugate-symmetry requirement)
    from repro.multipole.harmonics import coef_index

    for n in range(p + 1):
        i = coef_index(n, 0)
        packed[i] = packed[i].real
    full = to_full_grid(packed, p)
    back = from_full_grid(full, p)
    assert np.allclose(back, packed)
    # negative-m entries are conjugates
    for n in range(p + 1):
        for m in range(1, n + 1):
            assert full[n, p - m] == np.conj(full[n, p + m])


def test_translation_linearity(rng):
    p = 5
    A = rng.normal(size=(1, ncoef(p))) + 1j * rng.normal(size=(1, ncoef(p)))
    B = rng.normal(size=(1, ncoef(p))) + 1j * rng.normal(size=(1, ncoef(p)))
    d = rng.normal(size=(1, 3)) * 0.5
    assert np.allclose(m2m(A + B, d, p), m2m(A, d, p) + m2m(B, d, p))
    d_far = d + 5.0
    assert np.allclose(m2l(A + B, d_far, p), m2l(A, d_far, p) + m2l(B, d_far, p))
    assert np.allclose(l2l(A + B, d, p), l2l(A, d, p) + l2l(B, d, p))


class TestTranslationCacheBounds:
    def test_cache_stays_bounded_with_stats(self):
        from repro.multipole import translations as tr

        before = translation_cache_stats()
        assert set(before) >= {"size", "max_size", "hits", "misses"}
        # drive more distinct keys than the cap through the grid caches
        for p in range(1, 60):
            tr._sq_grid(p)
            tr._iphase_grid(p, +1)
            tr._iphase_grid(p, -1)
            tr._valid_mask(p)
        after = translation_cache_stats()
        assert after["size"] <= after["max_size"]
        assert after["misses"] > before["misses"]
        # re-request a hot key: pure hit, no growth
        tr._sq_grid(59)
        final = translation_cache_stats()
        assert final["hits"] > after["hits"]
        assert final["size"] == after["size"]

    def test_eviction_preserves_values(self):
        """Evicted entries are rebuilt identically (cache is transparent)."""
        from repro.multipole import translations as tr

        a = tr._sq_grid(7).copy()
        for p in range(60, 60 + tr._TRANSLATION_CACHE_MAX):
            tr._valid_mask(p)
        np.testing.assert_array_equal(tr._sq_grid(7), a)
