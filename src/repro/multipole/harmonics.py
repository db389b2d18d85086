r"""Greengard-normalized spherical harmonics and coefficient packing.

Convention (Greengard & Rokhlin, *J. Comp. Phys.* 73, 1987):

.. math::

    Y_n^m(\theta, \varphi) = \sqrt{\frac{(n-|m|)!}{(n+|m|)!}}
        \; P_n^{|m|}(\cos\theta) \; e^{i m \varphi}

with the associated Legendre functions of :mod:`repro.multipole.legendre`
(no Condon-Shortley phase).  Because all charges are real, every
expansion satisfies the conjugate symmetry ``C_n^{-m} = conj(C_n^m)``,
so we only store ``m >= 0``.

Packed layout
-------------
Coefficients for degree ``p`` are stored as a complex array of length
``ncoef(p) = (p+1)(p+2)/2`` with ``idx(n, m) = n(n+1)/2 + m``.

Solid harmonics
---------------
Every production kernel evaluates the *solid* harmonics

.. math::

    R_n^m(x) = r^n Y_n^m(\theta, \varphi), \qquad
    I_n^m(x) = Y_n^m(\theta, \varphi) / r^{n+1}

straight from Cartesian offsets (:func:`regular_solid`,
:func:`irregular_solid`): no angles, no trigonometry, no pole special
case.  Both follow the classic recurrences of the unnormalized
harmonics ``O_n^m = sq(n, m) I_n^m`` and ``E_n^m = R_n^m / sq(n, m)``,
``sq(n, m) = sqrt((n-m)!(n+m)!)``,

.. math::

    O_m^m = (2m-1) \frac{x+iy}{r^2} O_{m-1}^{m-1}, \quad
    O_n^m = \frac{(2n-1) z O_{n-1}^m - (n+m-1)(n-m-1) O_{n-2}^m}{r^2},

    E_m^m = \frac{x+iy}{2m} E_{m-1}^{m-1}, \quad
    E_n^m = \frac{(2n-1) z E_{n-1}^m - r^2 E_{n-2}^m}{(n-m)(n+m)},

with ``sq`` folded into the per-degree recurrence constants
(:func:`_recurrence_constants`) — which then coincide for the two
kinds.  Gradients follow from the ladder identities
``∂z O_n^m = -O_{n+1}^m``, ``(∂x+i∂y) O_n^m = -O_{n+1}^{m+1}``,
``(∂x-i∂y) O_n^m = O_{n+1}^{m-1}`` and their regular counterparts
``∂z E_n^m = E_{n-1}^m``, ``(∂x+i∂y) E_n^m = -E_{n-1}^{m+1}``,
``(∂x-i∂y) E_n^m = E_{n-1}^{m-1}`` (:func:`ladder_terms`).

:func:`sph_harmonics` and :func:`cart_to_sph` remain as the angular
reference the solid tables are tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .legendre import legendre_table

__all__ = [
    "ncoef",
    "coef_index",
    "degree_of_index",
    "norm_table",
    "cart_to_sph",
    "sph_harmonics",
    "term_count",
    "power_table",
    "regular_solid",
    "irregular_solid",
    "ladder_terms",
    "solid_gradient",
]


def power_table(x: np.ndarray, p: int) -> np.ndarray:
    """Powers ``x^0 .. x^p`` along a new trailing axis.

    Built with ``multiply.accumulate`` — one multiplication per entry,
    far cheaper than ``x[..., None] ** arange(p+1)`` which evaluates a
    transcendental ``pow`` per element.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape + (p + 1,), dtype=np.float64)
    out[..., 0] = 1.0
    if p >= 1:
        out[..., 1:] = x[..., None]
        np.multiply.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def ncoef(p: int) -> int:
    """Number of packed (m >= 0) coefficients of a degree-``p`` expansion."""
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    return (p + 1) * (p + 2) // 2


def coef_index(n: int, m: int) -> int:
    """Packed index of coefficient ``(n, m)`` with ``0 <= m <= n``."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got (n={n}, m={m})")
    return n * (n + 1) // 2 + m


@lru_cache(maxsize=None)
def _nm_arrays(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of (n, m) per packed index for degree ``p``."""
    ns = np.concatenate([np.full(n + 1, n, dtype=np.int64) for n in range(p + 1)])
    ms = np.concatenate([np.arange(n + 1, dtype=np.int64) for n in range(p + 1)])
    return ns, ms


def degree_of_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(n, m)`` arrays indexed by packed coefficient index."""
    return _nm_arrays(p)


@lru_cache(maxsize=None)
def norm_table(p: int) -> np.ndarray:
    """Packed array of normalizations ``sqrt((n-m)!/(n+m)!)``.

    Computed by the stable product form
    ``sqrt((n-m)!/(n+m)!) = prod_{k=n-m+1}^{n+m} k^{-1/2}``.
    """
    out = np.empty(ncoef(p), dtype=np.float64)
    for n in range(p + 1):
        val = 1.0
        out[coef_index(n, 0)] = 1.0
        for m in range(1, n + 1):
            # ratio (n-m)!/(n+m)! = previous ratio / ((n+m)(n-m+1))
            val /= (n + m) * (n - m + 1)
            out[coef_index(n, m)] = np.sqrt(val)
    return out


def cart_to_sph(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert Cartesian offsets to spherical ``(r, cosθ, φ)``.

    ``cosθ`` is returned instead of ``θ`` because every consumer feeds
    it straight into the Legendre recurrences.  At the origin
    ``cosθ = 1`` and ``φ = 0`` by convention.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    r = np.sqrt(np.einsum("...i,...i->...", xyz, xyz))
    safe = np.maximum(r, 1e-300)
    ct = np.clip(xyz[..., 2] / safe, -1.0, 1.0)
    phi = np.arctan2(xyz[..., 1], xyz[..., 0])
    return r, ct, phi


def sph_harmonics(costheta: np.ndarray, phi: np.ndarray, p: int) -> np.ndarray:
    """Packed spherical harmonics ``Y_n^m`` for ``m >= 0``.

    Parameters
    ----------
    costheta, phi:
        Broadcast-compatible arrays of angles.
    p:
        Maximum degree.

    Returns
    -------
    Complex array of shape ``broadcast.shape + (ncoef(p),)``.
    """
    costheta = np.asarray(costheta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    costheta, phi = np.broadcast_arrays(costheta, phi)
    P = legendre_table(costheta, p)  # (..., p+1, p+1)
    ns, ms = _nm_arrays(p)
    norms = norm_table(p)
    # exp(i m phi) for m = 0..p, shape (..., p+1)
    e = np.exp(1j * phi[..., None] * np.arange(p + 1))
    Y = P[..., ns, ms] * norms * e[..., ms]
    return Y


def term_count(p: int) -> int:
    """Number of multipole terms of a degree-``p`` expansion, ``(p+1)^2``.

    This is the metric the paper reports ("number of multipole terms
    evaluated"): a full expansion of degree ``p`` has ``(p+1)^2`` terms
    counting all ``-n <= m <= n``.
    """
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    return (p + 1) * (p + 1)


def _frozen(*arrays: np.ndarray) -> tuple:
    """Read-only views of cached constants shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


#: Degree-keyed caches below stay bounded: solid tables are built up to
#: twice the M2L degree cap (2 x 42), so 128 entries hold every degree.
_SOLID_CACHE_MAX = 128


@lru_cache(maxsize=_SOLID_CACHE_MAX)
def _recurrence_constants(p: int) -> tuple:
    """Per-degree constants ``(a_n, b_n, d_n)`` of the normalized solid
    recurrence, ``n = 1..p``.

    With the packed row ``T_n = (T_n^0 .. T_n^n)`` of either kind,

    ``T_n^m = a_n[m] ζ T_{n-1}^m - b_n[m] ϱ T_{n-2}^m`` for ``m < n``,
    ``T_n^n = d_n u T_{n-1}^{n-1}``,

    where ``(u, ζ, ϱ) = (x+iy, z, r²)`` for :func:`regular_solid` and
    ``((x+iy)/r², z/r², 1/r²)`` for :func:`irregular_solid`:
    ``a = (2n-1)/sqrt((n-m)(n+m))``,
    ``b = sqrt((n-m-1)(n+m-1)/((n-m)(n+m)))``, ``d = sqrt((2n-1)/(2n))``.
    """
    out = []
    for n in range(1, p + 1):
        m = np.arange(n, dtype=np.float64)
        a = (2 * n - 1) / np.sqrt((n - m) * (n + m))
        mb = m[: n - 1]
        b = np.sqrt((n - mb - 1) * (n + mb - 1) / ((n - mb) * (n + mb)))
        out.append(_frozen(a[:, None], b[:, None]) + (np.sqrt((2 * n - 1) / (2 * n)),))
    return tuple(out)


def _solid_table(xyz: np.ndarray, p: int, regular: bool) -> np.ndarray:
    """Shared recurrence of :func:`regular_solid` / :func:`irregular_solid`."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    r2 = x * x + y * y + z * z
    T = np.empty((ncoef(p), xyz.shape[0]), dtype=np.complex128)
    if regular:
        u, zeta, rho2 = x + 1j * y, z, r2
        T[0] = 1.0
    else:
        rho2 = 1.0 / r2
        u, zeta = (x + 1j * y) * rho2, z * rho2
        T[0] = np.sqrt(rho2)
    for n, (a, b, d) in enumerate(_recurrence_constants(p), start=1):
        row, prev, prev2 = n * (n + 1) // 2, n * (n - 1) // 2, (n - 1) * (n - 2) // 2
        np.multiply(a * zeta, T[prev : prev + n], out=T[row : row + n])
        if n >= 2:
            T[row : row + n - 1] -= (b * rho2) * T[prev2 : prev2 + n - 1]
        np.multiply(d * u, T[prev + n - 1], out=T[row + n])
    return T


def regular_solid(xyz: np.ndarray, p: int) -> np.ndarray:
    """Packed regular solid harmonics ``r^n Y_n^m`` of offsets ``xyz``.

    Batch-last: ``(B, 3)`` offsets give a complex ``(ncoef(p), B)``
    table.  Exact at the origin (``(1, 0, ..., 0)``).
    """
    return _solid_table(xyz, p, regular=True)


def irregular_solid(xyz: np.ndarray, p: int) -> np.ndarray:
    """Packed irregular solid harmonics ``Y_n^m / r^{n+1}`` of offsets
    ``xyz`` (nonzero), batch-last ``(ncoef(p), B)`` like
    :func:`regular_solid`."""
    return _solid_table(xyz, p, regular=False)


@lru_cache(maxsize=_SOLID_CACHE_MAX)
def ladder_terms(p: int, regular: bool) -> tuple:
    """Gradient ladder of a degree-``p`` expansion over a solid table.

    An expansion ``Φ = Re sum_c w_c C_c T_c`` (packed ``m >= 0``
    coefficients ``C``, real-part weights ``w`` = 1 for ``m = 0`` and 2
    otherwise) over the regular (``regular=True``, table degree ``p``)
    or irregular (table degree ``p+1``) solid table ``T`` has

    ``∂zΦ = Re S_z``, ``∂xΦ = Re(S_+ + S_-)``, ``∂yΦ = Im(S_+ - S_-)``

    with ``S_k = sum_terms sum_j coef[j] C[dst+j] T[src+j]`` over the
    returned ``(k, dst, src, coef)`` terms (``k`` = 0 for ``z``, 1 for
    ``+``, 2 for ``-``), one run of consecutive orders per degree and
    component.  ``S_+`` collects ``(∂x+i∂y)`` of the ``m >= 0`` terms;
    ``S_-`` the ``(∂x-i∂y)`` of the ``m >= 1`` terms, and the conjugate
    ``m < 0`` half of the series enters through ``conj(S_+)`` — the
    ``m = 0`` lowering step taken through the conjugate.
    """
    terms = []
    s = -1 if regular else 1
    for n in range(p + 1):
        nn = n + s
        if nn < 0:
            continue
        m = np.arange(n + 1, dtype=np.float64)
        if regular:
            fz = np.sqrt((n - m) * (n + m))
            fp = -np.sqrt((n - m) * np.maximum(n - m - 1, 0))
            fm = np.sqrt((n + m) * (n + m - 1))
        else:
            fz = -np.sqrt((n + 1 - m) * (n + 1 + m))
            fp = -np.sqrt((n + m + 1) * (n + m + 2))
            fm = np.sqrt((n - m + 1) * (n - m + 2))
        fz = fz * np.where(m == 0, 1.0, 2.0)
        dst, src = n * (n + 1) // 2, nn * (nn + 1) // 2
        kz = min(n, nn) + 1  # T_{n+s}^m exists for m <= n+s
        kp = min(n, nn - 1) + 1  # raising: m+1 <= n+s
        km = min(n, nn + 1)  # lowering, m = 1..km
        terms.append((0, dst, src) + _frozen(fz[:kz].copy()))
        if kp > 0:
            terms.append((1, dst, src + 1) + _frozen(fp[:kp].copy()))
        if km > 0:
            terms.append((2, dst + 1, src) + _frozen(fm[1 : km + 1].copy()))
    return tuple(terms)


def solid_gradient(T: np.ndarray, p: int, regular: bool) -> np.ndarray:
    """Cartesian gradient rows ``G`` (complex ``(3, ncoef(p), B)``) of a
    degree-``p`` expansion over the batch-last solid table ``T`` (regular
    at degree ``p`` or irregular at ``p+1``): ``∂_a Φ = Re sum_c C_c
    G[a, c]`` for packed coefficients ``C``, real-part weights folded
    in.  Assembled from :func:`ladder_terms`."""
    G = np.zeros((3, ncoef(p), T.shape[1]), dtype=np.complex128)
    for k, dst, src, coef in ladder_terms(p, regular):
        term = coef[:, None] * T[src : src + coef.size]
        sl = slice(dst, dst + coef.size)
        if k == 0:
            G[2, sl] = term
        else:
            G[0, sl] += term
            G[1, sl] += (-1j if k == 1 else 1j) * term
    return G
