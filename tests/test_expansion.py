"""Tests for P2M / M2P / P2L / L2P against direct summation and Theorem 1."""

import numpy as np
import pytest

from repro.core.bounds import theorem1_bound
from repro.multipole.expansion import (
    extend,
    l2p,
    m2p,
    p2l,
    p2m,
    truncate,
)
from repro.multipole.harmonics import ncoef


def exact_potential(tgt, src, q):
    d = tgt[:, None, :] - src[None, :, :]
    r = np.sqrt(np.einsum("tsi,tsi->ts", d, d))
    return (1.0 / r) @ q


def test_monopole_limit(rng):
    """Degree 0 at a distant point equals total charge over distance."""
    src = rng.normal(size=(10, 3)) * 0.01
    q = rng.uniform(0.5, 1.0, 10)
    M = p2m(src, q, 0)
    tgt = np.array([[10.0, 0.0, 0.0]])
    phi = m2p(M, tgt, 0)
    assert phi[0] == pytest.approx(q.sum() / 10.0, rel=1e-3)


def test_m2p_converges_with_degree(rng):
    src = rng.normal(size=(40, 3))
    src = src / np.linalg.norm(src, axis=1, keepdims=True) * rng.uniform(0, 0.35, (40, 1))
    q = rng.uniform(-1, 1, 40)
    tgt = rng.normal(size=(15, 3))
    tgt = tgt / np.linalg.norm(tgt, axis=1, keepdims=True) * 2.0
    ref = exact_potential(tgt, src, q)
    errs = []
    for p in (2, 5, 9, 14):
        M = p2m(src, q, p)
        errs.append(np.abs(m2p(M, tgt, p) - ref).max())
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] < 1e-9


def test_theorem1_bound_holds(rng):
    """Observed truncation error must respect the Greengard-Rokhlin bound."""
    for trial in range(5):
        src = rng.normal(size=(30, 3)) * 0.25
        q = rng.uniform(-1, 1, 30)
        a = np.linalg.norm(src, axis=1).max()
        A = np.abs(q).sum()
        tgt = rng.normal(size=(10, 3))
        tgt = tgt / np.linalg.norm(tgt, axis=1, keepdims=True) * (a * 2.5)
        r = np.linalg.norm(tgt, axis=1)
        ref = exact_potential(tgt, src, q)
        for p in (2, 4, 7):
            M = p2m(src, q, p)
            err = np.abs(m2p(M, tgt, p) - ref)
            bound = theorem1_bound(A, a, r, p)
            assert np.all(err <= bound * (1 + 1e-9))


def test_local_expansion_roundtrip(rng):
    """P2L + L2P approximates the far-source potential near the center."""
    src = rng.normal(size=(20, 3))
    src = src / np.linalg.norm(src, axis=1, keepdims=True) * 5.0
    q = rng.uniform(-1, 1, 20)
    p = 10
    L = p2l(src, q, p)
    tgt = rng.normal(size=(10, 3)) * 0.3
    ref = exact_potential(tgt, src, q)
    assert np.allclose(l2p(L, tgt, p), ref, rtol=1e-6, atol=1e-9)


def test_truncate_extend(rng):
    src = rng.normal(size=(10, 3)) * 0.2
    q = rng.uniform(0, 1, 10)
    M8 = p2m(src, q, 8)
    M5 = truncate(M8, 8, 5)
    assert np.allclose(M5, p2m(src, q, 5))
    M8b = extend(M5, 5, 8)
    assert M8b.shape[-1] == ncoef(8)
    assert np.allclose(M8b[: ncoef(5)], M5)
    assert np.all(M8b[ncoef(5) :] == 0)
    with pytest.raises(ValueError):
        truncate(M8, 8, 9)
    with pytest.raises(ValueError):
        extend(M8, 8, 7)


def test_multipole_linearity(rng):
    """p2m is linear in the charges."""
    src = rng.normal(size=(15, 3)) * 0.2
    q1 = rng.uniform(-1, 1, 15)
    q2 = rng.uniform(-1, 1, 15)
    p = 6
    assert np.allclose(
        p2m(src, 2.0 * q1 + 3.0 * q2, p), 2.0 * p2m(src, q1, p) + 3.0 * p2m(src, q2, p)
    )


def test_conjugate_symmetry_realness(rng):
    """m=0 coefficients must be real for real charges."""
    src = rng.normal(size=(20, 3)) * 0.3
    q = rng.uniform(-1, 1, 20)
    M = p2m(src, q, 6)
    from repro.multipole.harmonics import coef_index

    for n in range(7):
        assert abs(M[coef_index(n, 0)].imag) < 1e-12
