r"""Associated Legendre functions, vectorized over evaluation points.

The functions here use the convention *without* the Condon-Shortley
phase:

.. math::

    P_m^m(x)   &= (2m-1)!!\,(1-x^2)^{m/2} \\
    P_{m+1}^m(x) &= (2m+1)\,x\,P_m^m(x) \\
    (n-m)\,P_n^m(x) &= (2n-1)\,x\,P_{n-1}^m(x) - (n+m-1)\,P_{n-2}^m(x)

so all values are non-negative for ``x in [0, 1]``.  The reference
spherical harmonics of :mod:`repro.multipole.harmonics`
(:func:`~repro.multipole.harmonics.sph_harmonics`) build on this
convention; they are the oracle the Cartesian solid-harmonic kernels
are tested against, and no production path evaluates Legendre tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["legendre_table"]


def legendre_table(x: np.ndarray, pmax: int) -> np.ndarray:
    """Evaluate ``P_n^m(x)`` for all ``0 <= m <= n <= pmax``.

    Parameters
    ----------
    x:
        Array of evaluation points (any shape), values in ``[-1, 1]``.
    pmax:
        Maximum degree.

    Returns
    -------
    Array of shape ``x.shape + (pmax+1, pmax+1)`` where entry
    ``[..., n, m]`` is ``P_n^m(x)`` (zero for ``m > n``).
    """
    x = np.asarray(x, dtype=np.float64)
    if pmax < 0:
        raise ValueError(f"pmax must be >= 0, got {pmax}")
    out = np.zeros(x.shape + (pmax + 1, pmax + 1), dtype=np.float64)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))  # sin(theta) >= 0

    # Diagonal: P_m^m = (2m-1)!! s^m.
    pmm = np.ones_like(x)
    out[..., 0, 0] = pmm
    for m in range(1, pmax + 1):
        pmm = pmm * (2 * m - 1) * s
        out[..., m, m] = pmm

    # First off-diagonal: P_{m+1}^m = (2m+1) x P_m^m.
    for m in range(0, pmax):
        out[..., m + 1, m] = (2 * m + 1) * x * out[..., m, m]

    # Upward recurrence in n for fixed m.
    for m in range(0, pmax + 1):
        for n in range(m + 2, pmax + 1):
            out[..., n, m] = (
                (2 * n - 1) * x * out[..., n - 1, m] - (n + m - 1) * out[..., n - 2, m]
            ) / (n - m)
    return out
