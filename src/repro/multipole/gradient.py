r"""Analytic gradients of truncated multipole and local expansions.

Used for force evaluation (``F = -q ∇Φ``) in the n-body examples.  The
gradient of a degree-``p`` expansion is read off the solid-harmonic
table of :mod:`repro.multipole.harmonics` with the ladder identities
(:func:`~repro.multipole.harmonics.ladder_terms`): a multipole
expansion differentiates into the irregular table one degree up, a
local expansion into the regular table one degree down.  Everything is
Cartesian — exact on the polar axis and, for local expansions, at the
expansion center itself.
"""

from __future__ import annotations

import numpy as np

from .harmonics import irregular_solid, ladder_terms, ncoef, regular_solid

__all__ = ["grad_contract_rows", "m2p_grad", "m2p_grad_rows", "l2p_grad"]


def grad_contract_rows(coeff_rows: np.ndarray, T: np.ndarray, p: int, regular: bool):
    """``(t, 3)`` gradients of per-row expansions ``coeff_rows`` (``(t,
    >= ncoef(p))``) over the batch-last solid table ``T``, one
    degree-run of orders per ladder term (no ``(3, ncoef, t)`` row
    matrix is materialized)."""
    Ct = np.ascontiguousarray(np.asarray(coeff_rows)[:, : ncoef(p)].T)
    S = np.zeros((3, T.shape[1]), dtype=np.complex128)
    for k, dst, src, coef in ladder_terms(p, regular):
        n = coef.size
        S[k] += np.einsum("m,mt,mt->t", coef, Ct[dst : dst + n], T[src : src + n])
    return np.stack([(S[1] + S[2]).real, (S[1] - S[2]).imag, S[0].real], axis=-1)


def m2p_grad_rows(coeff_rows: np.ndarray, rel_targets: np.ndarray, p: int) -> np.ndarray:
    """Per-pair gradient evaluation: row ``i`` of ``coeff_rows`` is the
    expansion seen by target ``i``."""
    return grad_contract_rows(coeff_rows, irregular_solid(rel_targets, p + 1), p, False)


def m2p_grad(coeffs: np.ndarray, rel_targets: np.ndarray, p: int) -> np.ndarray:
    """Gradient of a multipole expansion at targets relative to its center.

    Returns ``(t, 3)`` array of ``∇Φ`` (the caller applies ``F = -q ∇Φ``).
    """
    rel_targets = np.asarray(rel_targets, dtype=np.float64)
    rows = np.broadcast_to(np.asarray(coeffs)[: ncoef(p)], (rel_targets.shape[0], ncoef(p)))
    return m2p_grad_rows(rows, rel_targets, p)


def l2p_grad(coeffs: np.ndarray, rel_targets: np.ndarray, p: int) -> np.ndarray:
    """Gradient of a local expansion at targets relative to its center."""
    rel_targets = np.asarray(rel_targets, dtype=np.float64)
    rows = np.broadcast_to(np.asarray(coeffs)[: ncoef(p)], (rel_targets.shape[0], ncoef(p)))
    return grad_contract_rows(rows, regular_solid(rel_targets, p), p, True)
