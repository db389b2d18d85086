"""Translation operators: M2M, M2L, L2L (batched, vectorized).

The operators are expressed as 2-D "triangular convolutions" over the
``(n, m)`` index grid after rescaling coefficients by
``i^{±|m|} sqrt((n-m)!(n+m)!)^{±1}`` — the classic
Greengard/Epton-Dembart trick.  With the conventions of
:mod:`repro.multipole.harmonics` (validated numerically against direct
summation in the test suite), the addition theorems are:

* **M2M** — with ``R_n^m(v) = rho^n conj(Y_n^m)`` (the "charge basis",
  so that ``M_n^m = sum_i q_i R_n^m(s_i)``):

  ``R_n^m(s + t) = sum_{j,k} W(n,m,j,k) R_j^k(s) R_{n-j}^{m-k}(t)``,
  ``W = i^{|m|-|k|-|m-k|} sq(n,m) / (sq(j,k) sq(n-j,m-k))``,
  ``sq(n,m) = sqrt((n-m)!(n+m)!)``.

* **M2L** — for a multipole at displacement ``d`` from the local center:

  ``L_j^k = i^{-|k|}/sq(j,k) * sum_{n,m} [(-1)^n i^{-|m|}/sq(n,m) M_n^m]
  * [i^{|m-k|} sq(j+n, m-k) Y_{j+n}^{m-k}(d) / |d|^{j+n+1}]``.

* **L2L** — shifting a local expansion by ``t`` (old center to new):

  ``L'_j^k = i^{-|k|}/sq(j,k) * sum_{nu,mu}
  [i^{-|mu|}/sq(nu,mu) E_nu^mu(t)] * [i^{|m|} sq(n,m) L_n^m]`` with
  ``n = j+nu, m = k+mu`` and ``E_n^m(v) = rho^n Y_n^m``.

All i-power exponents are even (``|m|``, ``|k|`` and ``|m-k|`` share the
parity of ``m - k + k``), so every operator is real-linear despite the
complex intermediates.

Batching: every function accepts ``(B, ncoef)`` coefficient arrays and
``(B, 3)`` shift vectors and processes all ``B`` translations in one
vectorized pass — this is how the octree upward pass translates all
children of a level at once.
"""

from __future__ import annotations

import numpy as np

from .harmonics import (
    degree_of_index,
    irregular_solid,
    ncoef,
    power_table,
    regular_solid,
)
from .rotations import RotationCache, rotate_packed

__all__ = [
    "m2m",
    "m2l",
    "l2l",
    "axial_m2m",
    "axial_m2l",
    "axial_l2l",
    "m2m_rotated",
    "m2l_rotated",
    "l2l_rotated",
    "to_full_grid",
    "from_full_grid",
    "translation_cache_stats",
]


#: Cap on entries held by the shared grid/operator cache below.  The
#: keys span degrees up to 2*42 (the M2L geometry grid uses the summed
#: degree) across several grid kinds plus the axial operator tables, so
#: the cap is larger than the 64 used for ``m_weights`` — but still a
#: hard bound, with FIFO eviction like PR 7's ``m_weights`` cache.
_TRANSLATION_CACHE_MAX = 256

_translation_cache: dict[tuple, object] = {}
_translation_hits = 0
_translation_misses = 0


def _cached(key: tuple, build):
    """Bounded FIFO memo shared by the grid and axial-operator helpers.

    Replaces the former unbounded ``lru_cache(maxsize=None)`` decorators:
    variable-order plans sweep many degrees per compile and must not grow
    the cache without limit.  Hit/miss totals surface in the metrics
    registry when tracing is enabled (``translation_cache_hits`` /
    ``translation_cache_misses``); the hit path stays a dict lookup.
    """
    global _translation_hits, _translation_misses
    val = _translation_cache.get(key)
    if val is not None:
        _translation_hits += 1
        return val
    _translation_misses += 1
    val = build()
    if len(_translation_cache) >= _TRANSLATION_CACHE_MAX:
        _translation_cache.pop(next(iter(_translation_cache)))
    _translation_cache[key] = val
    _record_translation_metrics()
    return val


def _record_translation_metrics() -> None:
    """Publish cache totals to the metrics registry (tracing only).

    Deferred import, synced on misses only — same contract as
    ``expansion._record_m_weights_metrics``.
    """
    from ..obs.tracing import is_enabled

    if not is_enabled():
        return
    from ..obs.metrics import REGISTRY

    h = REGISTRY.counter(
        "translation_cache_hits", "translation grid/operator cache hits"
    )
    if _translation_hits > h.value:
        h.inc(_translation_hits - h.value)
    m = REGISTRY.counter(
        "translation_cache_misses", "translation grid/operator cache misses"
    )
    if _translation_misses > m.value:
        m.inc(_translation_misses - m.value)


def translation_cache_stats() -> dict:
    """Current grid/operator cache totals (for tests and profiles)."""
    return {
        "hits": _translation_hits,
        "misses": _translation_misses,
        "size": len(_translation_cache),
        "max_size": _TRANSLATION_CACHE_MAX,
    }


def _sq_grid(p: int) -> np.ndarray:
    """Grid of ``sqrt((n-m)!(n+m)!)`` with shape ``(p+1, 2p+1)``.

    The m-axis index ``mm`` corresponds to ``m = mm - p``; entries with
    ``|m| > n`` are set to 1 (they multiply zeros).
    """
    return _cached(("sq", p), lambda: _build_sq_grid(p))


def _build_sq_grid(p: int) -> np.ndarray:
    out = np.ones((p + 1, 2 * p + 1), dtype=np.float64)
    fact = [1.0]
    for k in range(1, 2 * p + 1):
        fact.append(fact[-1] * k)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            out[n, m + p] = np.sqrt(fact[n - abs(m)] * fact[n + abs(m)])
    return out


def _iphase_grid(p: int, sign: int) -> np.ndarray:
    """Grid of ``i^{sign*|m|}`` with shape ``(p+1, 2p+1)``."""

    def build() -> np.ndarray:
        m = np.abs(np.arange(-p, p + 1))
        row = (1j) ** ((sign * m) % 4)
        return np.broadcast_to(row, (p + 1, 2 * p + 1)).copy()

    return _cached(("iphase", p, sign), build)


def _valid_mask(p: int) -> np.ndarray:
    """Boolean grid marking valid ``|m| <= n`` entries."""

    def build() -> np.ndarray:
        n = np.arange(p + 1)[:, None]
        m = np.abs(np.arange(-p, p + 1))[None, :]
        return m <= n

    return _cached(("mask", p), build)


def to_full_grid(packed: np.ndarray, p: int) -> np.ndarray:
    """Expand packed ``m >= 0`` coefficients to the full ``(n, m)`` grid.

    Input shape ``(..., ncoef(p))``; output ``(..., p+1, 2p+1)`` with the
    m-axis offset by ``p`` and negative-m entries filled by conjugate
    symmetry.
    """
    packed = np.asarray(packed)
    lead = packed.shape[:-1]
    out = np.zeros(lead + (p + 1, 2 * p + 1), dtype=np.complex128)
    idx = 0
    for n in range(p + 1):
        for m in range(n + 1):
            out[..., n, p + m] = packed[..., idx]
            if m > 0:
                out[..., n, p - m] = np.conj(packed[..., idx])
            idx += 1
    return out


def from_full_grid(full: np.ndarray, p: int) -> np.ndarray:
    """Pack the ``m >= 0`` entries of a full grid (inverse of :func:`to_full_grid`)."""
    full = np.asarray(full)
    lead = full.shape[:-2]
    out = np.empty(lead + (ncoef(p),), dtype=np.complex128)
    idx = 0
    for n in range(p + 1):
        for m in range(n + 1):
            out[..., idx] = full[..., n, p + m]
            idx += 1
    return out


def _regular_grid(shifts: np.ndarray, p: int, conj: bool) -> np.ndarray:
    """Full grid of ``rho^n Y_n^m(angles)`` (``conj=False``) or
    ``rho^n conj(Y_n^m)`` = ``R_n^m`` (``conj=True``) for each shift.

    Shape ``(B, p+1, 2p+1)``.
    """
    R = regular_solid(np.atleast_2d(shifts), p).T
    return to_full_grid(np.conj(R) if conj else R, p)


def _singular_grid(shifts: np.ndarray, p: int) -> np.ndarray:
    """Full grid of ``Y_n^m(angles) / rho^{n+1}`` for each shift."""
    return to_full_grid(irregular_solid(np.atleast_2d(shifts), p).T, p)


def m2m(coeffs: np.ndarray, shifts: np.ndarray, p: int) -> np.ndarray:
    """Translate multipole expansions to new centers.

    Parameters
    ----------
    coeffs:
        ``(B, ncoef(p))`` packed child coefficients (or ``(ncoef,)``).
    shifts:
        ``(B, 3)`` vectors *from the new (parent) center to the old
        (child) center*, i.e. ``child_center - parent_center``.
    p:
        Expansion degree (exact: parent coefficients up to degree ``p``
        depend only on child coefficients up to ``p``).

    Returns
    -------
    ``(B, ncoef(p))`` packed parent contributions (sum over children to
    assemble a parent expansion).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
    B = coeffs.shape[0]
    sq = _sq_grid(p)
    mask = _valid_mask(p)

    Mfull = to_full_grid(coeffs, p)
    mtil = Mfull * (_iphase_grid(p, -1) / sq) * mask
    R = _regular_grid(shifts, p, conj=True)
    btil = R * (_iphase_grid(p, -1) / sq) * mask

    out = np.zeros_like(Mfull)
    W = 2 * p + 1
    for j in range(p + 1):
        for k in range(-j, j + 1):
            b = btil[:, j, k + p]
            o_lo = max(0, k)
            o_hi = W + min(0, k)
            out[:, j : p + 1, o_lo:o_hi] += (
                b[:, None, None] * mtil[:, 0 : p + 1 - j, o_lo - k : o_hi - k]
            )
    out *= _iphase_grid(p, +1) * sq
    out *= mask
    return from_full_grid(out, p)


def m2l(coeffs: np.ndarray, d: np.ndarray, p_src: int, p_loc: int | None = None) -> np.ndarray:
    """Convert multipole expansions into local expansions.

    Parameters
    ----------
    coeffs:
        ``(B, ncoef(p_src))`` packed multipole coefficients.
    d:
        ``(B, 3)`` vectors *from the local center to the multipole
        center*.  ``|d|`` must exceed both expansion radii.
    p_src, p_loc:
        Source and local degrees (``p_loc`` defaults to ``p_src``).

    Returns
    -------
    ``(B, ncoef(p_loc))`` packed local coefficients.
    """
    if p_loc is None:
        p_loc = p_src
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    B = coeffs.shape[0]
    ps, pl = p_src, p_loc
    ptot = ps + pl
    # scaled singular grid of the displacements
    S = _singular_grid(d, ptot)
    shat = S * (_iphase_grid(ptot, +1) * _sq_grid(ptot)) * _valid_mask(ptot)

    sq_s = _sq_grid(ps)
    mask_s = _valid_mask(ps)
    Mfull = to_full_grid(coeffs, ps)
    signs = (-1.0) ** np.arange(ps + 1)
    mhat = Mfull * (_iphase_grid(ps, -1) / sq_s) * signs[None, :, None] * mask_s

    Lhat = np.zeros((B, pl + 1, 2 * pl + 1), dtype=np.complex128)
    C = ptot  # mu-axis offset of shat
    for n in range(ps + 1):
        for m in range(-n, n + 1):
            a = mhat[:, n, m + ps]
            # mu = m - k for k in [-pl, pl] -> slice reversed along mu.
            sl = shat[:, n : n + pl + 1, m - pl + C : m + pl + C + 1][:, :, ::-1]
            Lhat += a[:, None, None] * sl
    sq_l = _sq_grid(pl)
    Lfull = Lhat * (_iphase_grid(pl, -1) / sq_l)
    Lfull *= _valid_mask(pl)
    return from_full_grid(Lfull, pl)


def l2l(coeffs: np.ndarray, shifts: np.ndarray, p: int) -> np.ndarray:
    """Re-center local expansions.

    Parameters
    ----------
    coeffs:
        ``(B, ncoef(p))`` packed local coefficients about the old center.
    shifts:
        ``(B, 3)`` vectors *from the old center to the new center*.
    p:
        Degree (exact operation).

    Returns
    -------
    ``(B, ncoef(p))`` packed local coefficients about the new centers.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
    B = coeffs.shape[0]
    sq = _sq_grid(p)
    mask = _valid_mask(p)

    Lfull = to_full_grid(coeffs, p)
    a = Lfull * (_iphase_grid(p, +1) * sq) * mask
    E = _regular_grid(shifts, p, conj=False)
    c = E * (_iphase_grid(p, -1) / sq) * mask

    out = np.zeros_like(Lfull)
    W = 2 * p + 1
    for nu in range(p + 1):
        for mu in range(-nu, nu + 1):
            cv = c[:, nu, mu + p]
            o_lo = max(0, -mu)
            o_hi = W - max(0, mu)
            out[:, 0 : p + 1 - nu, o_lo:o_hi] += (
                cv[:, None, None] * a[:, nu : p + 1, o_lo + mu : o_hi + mu]
            )
    out *= _iphase_grid(p, -1) / sq
    out *= mask
    return from_full_grid(out, p)


# ---------------------------------------------------------------------------
# Axial (z-aligned) translations and their rotation-accelerated wrappers.
#
# When the translation vector is ``rho * z`` the addition theorems above
# collapse: Y_n^m(z) = delta_{m0}, so every operator conserves the order
# ``m`` and becomes a small real triangular matrix per ``m`` — O((p+1)^3)
# flops in total instead of O((p+1)^4).  Specializing the docstring
# formulas to the axial case (all i-powers cancel; sq = sqrt((n-m)!(n+m)!)):
#
#   M2M:  M'_n^m = sum_{j=|m|}^{n}  sq(n,m) / (sq(j,m) (n-j)!) rho^{n-j} M_j^m
#   M2L:  L_j^k  = sum_{n=|k|}^{p}  (-1)^{n+k} (j+n)! / (sq(j,k) sq(n,k))
#                                   rho^{-(j+n+1)} M_n^k
#   L2L:  L'_j^k = sum_{n=j}^{p}    sq(n,k) / (sq(j,k) (n-j)!) rho^{n-j} L_n^k
#
# The rho powers are factored out as per-row diagonal scalings so the
# remaining matrices are geometry-independent and cached per degree.
# ---------------------------------------------------------------------------


def _axial_cols(p: int, k: int) -> np.ndarray:
    """Packed indices of the order-``k`` column: ``idx(n, k)`` for n=k..p."""
    n = np.arange(k, p + 1, dtype=np.int64)
    return n * (n + 1) // 2 + k


def _axial_m2l_mats(p_src: int, p_loc: int, dtype=np.float64) -> list:
    """Per-order M2L matrices ``G_k[j-k, n-k]`` plus packed column indices."""

    def build() -> list:
        ptot = p_src + p_loc
        fact = np.cumprod(
            np.concatenate([[1.0], np.arange(1, ptot + 1, dtype=np.float64)])
        )
        out = []
        for k in range(min(p_src, p_loc) + 1):
            j = np.arange(k, p_loc + 1, dtype=np.int64)
            n = np.arange(k, p_src + 1, dtype=np.int64)
            sq_j = np.sqrt(fact[j - k] * fact[j + k])
            sq_n = np.sqrt(fact[n - k] * fact[n + k])
            sign = np.where((n + k) % 2 == 0, 1.0, -1.0)
            G = (sign[None, :] * fact[j[:, None] + n[None, :]]) / (
                sq_j[:, None] * sq_n[None, :]
            )
            out.append(
                (
                    np.ascontiguousarray(G.astype(dtype).T),
                    _axial_cols(p_src, k),
                    _axial_cols(p_loc, k),
                )
            )
        return out

    return _cached(("axial_m2l", p_src, p_loc, np.dtype(dtype).str), build)


def _axial_shift_mats(p: int, kind: str, dtype=np.float64) -> list:
    """Per-order M2M (``kind='m2m'``) or L2L (``kind='l2l'``) matrices.

    Both share the entry ``sq(n,m) / (sq(j,m) (n-j)!)``; M2M sums over
    sources ``j <= n`` (lower triangular in the output degree), L2L over
    sources ``n >= j`` (upper triangular).
    """

    def build() -> list:
        fact = np.cumprod(
            np.concatenate([[1.0], np.arange(1, 2 * p + 1, dtype=np.float64)])
        )
        out = []
        for m in range(p + 1):
            n = np.arange(m, p + 1, dtype=np.int64)
            sq = np.sqrt(fact[n - m] * fact[n + m])
            if kind == "m2m":
                # G[n-m, j-m] for j <= n
                diff = n[:, None] - n[None, :]
                G = np.where(
                    diff >= 0,
                    sq[:, None] / (sq[None, :] * fact[np.maximum(diff, 0)]),
                    0.0,
                )
            else:
                # G[j-m, n-m] for n >= j
                diff = n[None, :] - n[:, None]
                G = np.where(
                    diff >= 0,
                    sq[None, :] / (sq[:, None] * fact[np.maximum(diff, 0)]),
                    0.0,
                )
            out.append((np.ascontiguousarray(G.astype(dtype).T), _axial_cols(p, m)))
        return out

    return _cached((f"axial_{kind}", p, np.dtype(dtype).str), build)


def _real_dtype(c: np.ndarray):
    return np.float32 if c.dtype == np.complex64 else np.float64


def axial_m2l(
    coeffs: np.ndarray, rho: np.ndarray, p_src: int, p_loc: int | None = None
) -> np.ndarray:
    """M2L specialized to displacements ``d = rho * z`` (``rho > 0``).

    ``coeffs`` is ``(B, ncoef(p_src))``, ``rho`` broadcastable to
    ``(B,)``; returns ``(B, ncoef(p_loc))`` in the dtype of ``coeffs``.
    """
    pl = p_src if p_loc is None else p_loc
    coeffs = np.atleast_2d(coeffs)
    rdt = _real_dtype(coeffs)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (coeffs.shape[0],))
    pw = power_table(1.0 / rho, max(p_src + 1, pl)).astype(rdt, copy=False)
    ns_s = degree_of_index(p_src)[0]
    ns_l = degree_of_index(pl)[0]
    Ct = coeffs * pw[:, ns_s + 1]  # rho^{-(n+1)}
    out = np.zeros((coeffs.shape[0], ncoef(pl)), dtype=coeffs.dtype)
    for GT, cols_s, cols_l in _axial_m2l_mats(p_src, pl, rdt):
        out[:, cols_l] = Ct[:, cols_s] @ GT
    out *= pw[:, ns_l]  # rho^{-j}
    return out


def axial_m2m(coeffs: np.ndarray, rho: np.ndarray, p: int) -> np.ndarray:
    """M2M specialized to shifts ``t = rho * z`` (``rho > 0``)."""
    coeffs = np.atleast_2d(coeffs)
    rdt = _real_dtype(coeffs)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (coeffs.shape[0],))
    pw = power_table(rho, p).astype(rdt, copy=False)
    pwi = power_table(1.0 / rho, p).astype(rdt, copy=False)
    ns = degree_of_index(p)[0]
    Ct = coeffs * pwi[:, ns]  # rho^{-j}
    out = np.empty_like(coeffs)
    for GT, cols in _axial_shift_mats(p, "m2m", rdt):
        out[:, cols] = Ct[:, cols] @ GT
    out *= pw[:, ns]  # rho^{n}
    return out


def axial_l2l(coeffs: np.ndarray, rho: np.ndarray, p: int) -> np.ndarray:
    """L2L specialized to shifts ``t = rho * z`` (``rho > 0``)."""
    coeffs = np.atleast_2d(coeffs)
    rdt = _real_dtype(coeffs)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (coeffs.shape[0],))
    pw = power_table(rho, p).astype(rdt, copy=False)
    pwi = power_table(1.0 / rho, p).astype(rdt, copy=False)
    ns = degree_of_index(p)[0]
    Ct = coeffs * pw[:, ns]  # rho^{n}
    out = np.empty_like(coeffs)
    for GT, cols in _axial_shift_mats(p, "l2l", rdt):
        out[:, cols] = Ct[:, cols] @ GT
    out *= pwi[:, ns]  # rho^{-j}
    return out


def _rotated_apply(coeffs, shifts, p_src, p_loc, axial, cache):
    """Shared rotate -> axial -> unrotate driver for the wrappers below.

    Groups rows by quantized shift direction so each distinct direction
    pays for its rotation operator once; zero shifts are the identity.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
    if shifts.shape[0] == 1 and coeffs.shape[0] > 1:
        shifts = np.broadcast_to(shifts, (coeffs.shape[0], 3))
    rho = np.sqrt(np.einsum("ij,ij->i", shifts, shifts))
    out = np.empty((coeffs.shape[0], ncoef(p_loc)), dtype=np.complex128)
    live = rho > 0.0
    if not live.all():
        # zero shift: M2M/L2L are the identity (M2L never sees rho=0)
        nc = min(ncoef(p_loc), coeffs.shape[1])
        out[~live, :] = 0.0
        out[~live, :nc] = coeffs[~live, :nc]
    idx_live = np.nonzero(live)[0]
    if idx_live.size == 0:
        return out
    u = shifts[idx_live] / rho[idx_live, None]
    if cache is None:
        cache = RotationCache()
    ids = cache.ids_for(u, max(p_src, p_loc))
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    bounds = np.flatnonzero(np.diff(ids_sorted)) + 1
    starts = np.concatenate([[0], bounds])
    stops = np.concatenate([bounds, [ids_sorted.size]])
    for lo, hi in zip(starts, stops):
        rows = idx_live[order[lo:hi]]
        ops = cache.get(int(ids_sorted[lo]))
        Cr = rotate_packed(coeffs[rows], ops, p_src)
        La = axial(Cr, rho[rows])
        out[rows] = rotate_packed(La, ops, p_loc, inverse=True)
    return out


def m2l_rotated(
    coeffs: np.ndarray,
    d: np.ndarray,
    p_src: int,
    p_loc: int | None = None,
    cache: RotationCache | None = None,
) -> np.ndarray:
    """Drop-in :func:`m2l` via rotate-translate-rotate (O((p+1)^3)).

    Agrees with the dense path to ~1e-12 at the repo's degree cap; pass
    a shared :class:`~repro.multipole.rotations.RotationCache` to reuse
    operators across calls.
    """
    pl = p_src if p_loc is None else p_loc
    return _rotated_apply(
        coeffs, d, p_src, pl, lambda C, r: axial_m2l(C, r, p_src, pl), cache
    )


def m2m_rotated(
    coeffs: np.ndarray,
    shifts: np.ndarray,
    p: int,
    cache: RotationCache | None = None,
) -> np.ndarray:
    """Drop-in :func:`m2m` via rotate-translate-rotate (O((p+1)^3))."""
    return _rotated_apply(
        coeffs, shifts, p, p, lambda C, r: axial_m2m(C, r, p), cache
    )


def l2l_rotated(
    coeffs: np.ndarray,
    shifts: np.ndarray,
    p: int,
    cache: RotationCache | None = None,
) -> np.ndarray:
    """Drop-in :func:`l2l` via rotate-translate-rotate (O((p+1)^3))."""
    return _rotated_apply(
        coeffs, shifts, p, p, lambda C, r: axial_l2l(C, r, p), cache
    )
