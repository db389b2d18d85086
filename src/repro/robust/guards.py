"""Numerical guards at the treecode / FMM / GMRES boundaries.

Cruz & Barba's characterization of FMM error sources shows how a
silently degraded approximation corrupts everything downstream, so the
policy here is *fail loudly at the boundary*: every guard either passes
the data through untouched or raises a diagnostic error naming the
site, the corruption count and the first offending index — poisoned
potentials never escape into tables or solver iterates.

Three guard families:

* :func:`check_finite` — NaN/Inf detection on coefficient and potential
  arrays (treecode upward pass, worker-block outputs, FMM output,
  assembled parallel potentials).
* :func:`check_bound_accounting` — the Theorem-1 sanity check: an
  evaluation that accumulates per-target bounds also buckets the same
  bound mass per tree level, and the two ledgers must agree; finite,
  non-negative bounds whose per-level sum matches the per-target sum is
  the accounting identity the paper's theorems rest on.
* :func:`solve_with_recovery` — GMRES breakdown/stagnation handling:
  restart-parameter escalation (a stagnating GMRES(10) often converges
  with a larger Krylov space) and, for small systems, a dense
  direct-solve fallback built by applying the operator to the identity.

Every guard trip and GMRES recovery is a :func:`repro.obs.emit` event
(``guard_trip``, ``gmres_escalation``, ``gmres_dense_fallback``), so
recovery behavior shows up in the counters, the journal and the trace
of ``python -m repro profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import emit
from ..obs.tracing import span

__all__ = [
    "NumericalCorruptionError",
    "BoundAccountingError",
    "check_finite",
    "check_bound_accounting",
    "solve_with_recovery",
    "RobustSolveResult",
]


class NumericalCorruptionError(FloatingPointError):
    """NaN/Inf detected at a guarded boundary."""


class BoundAccountingError(NumericalCorruptionError):
    """The Theorem-1 bound ledger is internally inconsistent."""


def check_finite(site: str, arr: np.ndarray, context: str = "") -> np.ndarray:
    """Return ``arr`` unchanged iff every entry is finite; otherwise
    raise :class:`NumericalCorruptionError` with a located diagnostic."""
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    flat = np.asarray(finite).reshape(-1)
    bad = int(flat.size - np.count_nonzero(flat))
    first = int(np.argmin(flat))
    vals = np.asarray(arr).reshape(-1)
    n_nan = int(np.count_nonzero(np.isnan(vals)))
    emit("guard_trip", site=site, reason="non_finite")
    suffix = f" ({context})" if context else ""
    raise NumericalCorruptionError(
        f"{site}: {bad}/{flat.size} non-finite entries "
        f"({n_nan} NaN, {bad - n_nan} Inf), first at flat index {first}{suffix}"
    )


def check_bound_accounting(
    site: str, error_bound: np.ndarray, bound_by_level: dict, rtol: float = 1e-6
) -> None:
    """Theorem-1 sanity check on one evaluation's bound ledger.

    The per-target accumulated bounds and the per-level bucket sums are
    two views of the same sum over accepted interactions; they must be
    finite, non-negative, and agree to rounding.
    """
    if not np.isfinite(error_bound).all():
        emit("guard_trip", site=site, reason="bound_non_finite")
        raise BoundAccountingError(f"{site}: non-finite Theorem-1 bound entries")
    if error_bound.size and float(error_bound.min()) < 0.0:
        emit("guard_trip", site=site, reason="bound_negative")
        raise BoundAccountingError(
            f"{site}: negative Theorem-1 bound {float(error_bound.min()):.3e}"
        )
    total = float(error_bound.sum())
    by_level = float(sum(bound_by_level.values()))
    if not np.isfinite(by_level) or abs(by_level - total) > rtol * max(
        1.0, abs(total)
    ):
        emit("guard_trip", site=site, reason="bound_ledger_mismatch")
        raise BoundAccountingError(
            f"{site}: Theorem-1 bound ledgers disagree — per-target sum "
            f"{total:.6e} vs per-level sum {by_level:.6e}"
        )


# ----------------------------------------------------------------------
# GMRES recovery
# ----------------------------------------------------------------------


@dataclass
class RobustSolveResult:
    """A recovered linear solve: final result plus the actions taken."""

    result: object  #: the winning :class:`~repro.bem.gmres.GMRESResult`
    actions: list[str] = field(default_factory=list)  #: recovery log

    @property
    def recovered(self) -> bool:
        return bool(self.actions)


def _dense_matrix(matvec, n: int) -> np.ndarray:
    """Materialize the operator column by column (small systems only)."""
    A = np.empty((n, n), dtype=np.float64)
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = matvec(e)
        e[j] = 0.0
    return A


def solve_with_recovery(
    matvec,
    b: np.ndarray,
    restart: int = 10,
    tol: float = 1e-8,
    maxiter: int = 1000,
    x0: np.ndarray | None = None,
    escalations: tuple = (2, 4),
    dense_limit: int = 800,
) -> RobustSolveResult:
    """GMRES with automatic escalation and a dense fallback.

    Runs plain GMRES first; on breakdown/stagnation/non-convergence the
    restart parameter is escalated through ``restart * f`` for each
    factor in ``escalations`` (warm-started from the best iterate so
    far), and if the system is still unsolved and small enough
    (``n <= dense_limit``) the operator is materialized and solved
    directly.  The default path of a healthy solve is byte-identical to
    calling :func:`~repro.bem.gmres.gmres`.
    """
    from ..bem.gmres import GMRESResult, gmres  # local: avoid an import cycle

    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    actions: list[str] = []

    res = gmres(matvec, b, x0=x0, restart=restart, tol=tol, maxiter=maxiter)
    best = res
    if res.converged:
        return RobustSolveResult(result=res, actions=actions)

    for f in escalations:
        m = restart * int(f)
        reason = (
            "breakdown"
            if getattr(best, "breakdown", False)
            else "stagnation" if getattr(best, "stagnated", False) else "no_convergence"
        )
        emit("gmres_escalation", restart=m, reason=reason)
        actions.append(f"escalate_restart:{m}({reason})")
        with span("robust.gmres_escalation", restart=m, reason=reason):
            # a breakdown iterate may be poisoned — restart cold then
            warm = None if getattr(best, "breakdown", False) else best.x
            res = gmres(matvec, b, x0=warm, restart=m, tol=tol, maxiter=maxiter)
        if np.isfinite(res.residual_norm) and (
            not np.isfinite(best.residual_norm)
            or res.residual_norm < best.residual_norm
        ):
            best = res
        if res.converged:
            return RobustSolveResult(result=res, actions=actions)

    if n <= dense_limit:
        emit("gmres_dense_fallback", n=n)
        actions.append(f"dense_solve:n={n}")
        with span("robust.dense_fallback", n=n):
            A = _dense_matrix(matvec, n)
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
            rnorm = float(np.linalg.norm(b - A @ x))
        bnorm = float(np.linalg.norm(b))
        dense = GMRESResult(
            x=x,
            converged=bool(rnorm <= tol * max(bnorm, 1e-300)),
            n_iterations=best.n_iterations,
            n_restarts=best.n_restarts,
            residual_norm=rnorm,
            history=list(best.history),
        )
        if dense.converged or not np.isfinite(best.residual_norm) or (
            rnorm < best.residual_norm
        ):
            best = dense
    return RobustSolveResult(result=best, actions=actions)
