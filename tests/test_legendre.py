"""Tests for associated Legendre recurrences (vs scipy and identities)."""

import numpy as np
import pytest
from scipy.special import lpmv

from repro.multipole.legendre import legendre_table


def scipy_pnm(n, m, x):
    """scipy's lpmv includes the Condon-Shortley phase; ours does not."""
    return (-1.0) ** m * lpmv(m, n, x)


def test_against_scipy():
    x = np.linspace(-0.999, 0.999, 41)
    pmax = 10
    P = legendre_table(x, pmax)
    for n in range(pmax + 1):
        for m in range(n + 1):
            expected = scipy_pnm(n, m, x)
            assert np.allclose(P[:, n, m], expected, rtol=1e-10, atol=1e-12), (n, m)


def test_values_at_poles():
    P = legendre_table(np.array([1.0, -1.0]), 6)
    # P_n^0(±1) = (±1)^n ; P_n^m(±1) = 0 for m > 0
    for n in range(7):
        assert P[0, n, 0] == pytest.approx(1.0)
        assert P[1, n, 0] == pytest.approx((-1.0) ** n)
        for m in range(1, n + 1):
            assert P[0, n, m] == 0.0
            assert P[1, n, m] == 0.0


def test_low_order_closed_forms():
    x = np.linspace(-1, 1, 21)
    s = np.sqrt(1 - x**2)
    P = legendre_table(x, 3)
    assert np.allclose(P[:, 0, 0], 1.0)
    assert np.allclose(P[:, 1, 0], x)
    assert np.allclose(P[:, 1, 1], s)
    assert np.allclose(P[:, 2, 0], 0.5 * (3 * x**2 - 1))
    assert np.allclose(P[:, 2, 1], 3 * x * s)
    assert np.allclose(P[:, 2, 2], 3 * (1 - x**2))


def test_upper_triangle_zero():
    P = legendre_table(np.array([0.3]), 5)
    for n in range(6):
        for m in range(n + 1, 6):
            assert P[0, n, m] == 0.0


def test_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_table(np.array([0.0]), -1)
