r"""Multipole and local expansions for the 3-D Laplace kernel ``1/r``.

A degree-``p`` *multipole* expansion about a center ``c`` of charges
``q_i`` at positions ``s_i`` (with ``rho_i = |s_i - c| < a``) is

.. math::

    M_n^m = \sum_i q_i \rho_i^n \, \overline{Y_n^m(\alpha_i, \beta_i)},
    \qquad
    \Phi(x) = \sum_{n=0}^{p} \sum_{m=-n}^{n}
        \frac{M_n^m}{r^{n+1}} Y_n^m(\theta, \varphi)

valid for ``r = |x - c| > a`` (Theorem 1 of the paper, due to Greengard
and Rokhlin).  A *local* expansion about ``c`` stores coefficients
``L_n^m`` with ``Phi(c + y) = sum L_n^m rho_y^n Y_n^m(theta_y, phi_y)``.

Because charges are real, ``C_n^{-m} = conj(C_n^m)`` for both kinds of
expansion, and only ``m >= 0`` coefficients are stored (packed layout of
:mod:`repro.multipole.harmonics`).

All routines are vectorized over sources and targets; evaluation of one
expansion at many targets is a single dense matrix-vector product.
"""

from __future__ import annotations

import numpy as np

from .harmonics import degree_of_index, irregular_solid, ncoef, regular_solid

__all__ = [
    "p2m",
    "m2p",
    "p2l",
    "l2p",
    "m_weights",
    "truncate",
    "extend",
]


#: Cap on distinct degrees held by the :func:`m_weights` cache.
#: Variable-order plans touch dozens of degrees per compile; fixed-size
#: FIFO eviction keeps the cache bounded without an LRU bookkeeping
#: cost on the hit path.
_M_WEIGHTS_CACHE_MAX = 64

_m_weights_cache: dict[int, np.ndarray] = {}
_m_weights_hits = 0
_m_weights_misses = 0


def m_weights(p: int) -> np.ndarray:
    """Real-part weights per packed index: 1 for ``m = 0``, 2 for ``m > 0``.

    Using conjugate symmetry, the full-``m`` sum collapses to
    ``sum_m C_n^m F_n^m = C_n^0 F_n^0 + 2 Re sum_{m>0} C_n^m F_n^m``.

    Cached per degree (and returned read-only): the evaluator calls this
    once per far-field chunk, and rebuilding the index grids dominated
    the cost for small chunks.  The cache is bounded
    (:data:`_M_WEIGHTS_CACHE_MAX` degrees, FIFO eviction) so
    variable-order plans sweeping many degrees cannot grow it without
    limit; hit/miss totals surface in the metrics registry when tracing
    is enabled (``m_weights_cache_hits`` / ``m_weights_cache_misses``).
    """
    global _m_weights_hits, _m_weights_misses
    p = int(p)
    w = _m_weights_cache.get(p)
    if w is not None:
        _m_weights_hits += 1
        return w
    _m_weights_misses += 1
    _, ms = degree_of_index(p)
    w = np.where(ms == 0, 1.0, 2.0)
    w.setflags(write=False)
    if len(_m_weights_cache) >= _M_WEIGHTS_CACHE_MAX:
        _m_weights_cache.pop(next(iter(_m_weights_cache)))
    _m_weights_cache[p] = w
    _record_m_weights_metrics()
    return w


def _record_m_weights_metrics() -> None:
    """Publish cache totals to the metrics registry (tracing only).

    Deferred import: :mod:`repro.obs` pulls in tracing machinery this
    leaf module must not depend on at import time.  Counters are synced
    on misses only — the hit path stays a dict lookup.
    """
    from ..obs.tracing import is_enabled

    if not is_enabled():
        return
    from ..obs.metrics import REGISTRY

    h = REGISTRY.counter(
        "m_weights_cache_hits", "m_weights degree-cache hits"
    )
    if _m_weights_hits > h.value:
        h.inc(_m_weights_hits - h.value)
    m = REGISTRY.counter(
        "m_weights_cache_misses", "m_weights degree-cache misses"
    )
    if _m_weights_misses > m.value:
        m.inc(_m_weights_misses - m.value)


def p2m(rel_pos: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    """Form multipole coefficients from point charges.

    Parameters
    ----------
    rel_pos:
        ``(n, 3)`` positions relative to the expansion center.
    q:
        ``(n,)`` charges.
    p:
        Expansion degree.

    Returns
    -------
    Packed complex coefficient array of length ``ncoef(p)``.
    """
    q = np.asarray(q, dtype=np.float64)
    return np.conj(regular_solid(rel_pos, p) @ q)


def m2p(coeffs: np.ndarray, rel_targets: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a multipole expansion at targets (relative to its center).

    Targets must be outside the sphere enclosing the sources for the
    series to converge; this is the caller's (MAC's) responsibility.

    Returns the real potential, shape ``(t,)``.
    """
    c = m_weights(p) * np.asarray(coeffs)[: ncoef(p)]
    return np.real(c @ irregular_solid(rel_targets, p))


def p2l(rel_pos: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    """Form a local expansion directly from distant point charges.

    For a charge at ``u`` (relative to the local center, ``|u|`` larger
    than the evaluation radius), ``L_n^m = q conj(Y_n^m(u)) / |u|^{n+1}``.
    """
    q = np.asarray(q, dtype=np.float64)
    return np.conj(irregular_solid(rel_pos, p) @ q)


def l2p(coeffs: np.ndarray, rel_targets: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a local expansion at targets (relative to its center)."""
    c = m_weights(p) * np.asarray(coeffs)[: ncoef(p)]
    return np.real(c @ regular_solid(rel_targets, p))


def truncate(coeffs: np.ndarray, p_from: int, p_to: int) -> np.ndarray:
    """Truncate packed coefficients from degree ``p_from`` down to ``p_to``."""
    if p_to > p_from:
        raise ValueError(f"cannot truncate degree {p_from} up to {p_to}")
    return np.asarray(coeffs)[..., : ncoef(p_to)]


def extend(coeffs: np.ndarray, p_from: int, p_to: int) -> np.ndarray:
    """Zero-pad packed coefficients from degree ``p_from`` up to ``p_to``."""
    if p_to < p_from:
        raise ValueError(f"cannot extend degree {p_from} down to {p_to}")
    coeffs = np.asarray(coeffs)
    out = np.zeros(coeffs.shape[:-1] + (ncoef(p_to),), dtype=np.complex128)
    out[..., : ncoef(p_from)] = coeffs
    return out
