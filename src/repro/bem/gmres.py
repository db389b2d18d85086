"""GMRES with restarts, implemented from scratch.

The paper solves the dense boundary-integral systems with "a GMRES
iterative solver ... with a restart of 10", computing the matrix-vector
product with the treecode.  This is a textbook Arnoldi/Givens
implementation (Saad & Schultz 1986) that takes any callable operator,
so the same solver runs against the treecode matvec and the dense
reference operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span
from ..robust.faults import maybe_corrupt

__all__ = ["gmres", "GMRESResult"]


def _observe_residual(rel: float) -> None:
    """Publish one inner iteration's residual to the metrics registry:
    a gauge (latest value) plus a decade-bucketed histogram, so the
    residual trajectory of a solve is visible in the exposition."""
    REGISTRY.counter("gmres_iterations", "GMRES inner iterations (matvecs)").inc()
    REGISTRY.gauge("gmres_residual", "latest GMRES relative residual").set(rel)
    REGISTRY.histogram(
        "gmres_residual_hist",
        "distribution of per-iteration relative residuals",
        base=10.0,
    ).observe(rel)


@dataclass
class GMRESResult:
    """Solution and convergence history of a GMRES run."""

    x: np.ndarray
    converged: bool
    n_iterations: int  #: total inner iterations (matvecs, excluding restarts)
    n_restarts: int
    residual_norm: float
    history: list = field(default_factory=list)  #: relative residual per iteration
    breakdown: bool = False  #: non-finite arithmetic detected; x is the last finite iterate
    stagnated: bool = False  #: stopped early after non-improving restart cycles


def gmres(
    matvec,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    restart: int = 10,
    tol: float = 1e-8,
    maxiter: int = 1000,
    callback=None,
    stagnation_cycles: int = 3,
    stagnation_factor: float = 0.999,
) -> GMRESResult:
    """Solve ``A x = b`` for a linear operator given as a callable.

    Parameters
    ----------
    matvec:
        Callable ``v -> A @ v``.
    b:
        Right-hand side.
    x0:
        Initial guess (zero by default).
    restart:
        Krylov dimension per cycle (the paper uses 10).
    tol:
        Relative residual target ``||b - A x|| <= tol * ||b||``.
    maxiter:
        Cap on total inner iterations.
    callback:
        Optional ``callback(relative_residual)`` per inner iteration.
    stagnation_cycles:
        Stop early (``stagnated=True``) after this many consecutive
        restart cycles whose true residual improved by less than a
        factor of ``stagnation_factor``; 0 disables the check.
    stagnation_factor:
        Per-cycle improvement threshold for the stagnation test.

    A non-finite residual or Krylov vector (operator breakdown) stops
    the solve immediately with ``breakdown=True`` and the last finite
    iterate, instead of poisoning every later iteration with NaN.

    Returns
    -------
    :class:`GMRESResult`
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return GMRESResult(
            x=np.zeros(n), converged=True, n_iterations=0, n_restarts=0,
            residual_norm=0.0, history=[0.0],
        )

    history: list[float] = []
    total_iters = 0
    n_restarts = 0
    obs_on = is_enabled()
    prev_cycle_rel: float | None = None
    stagnant_cycles = 0

    def _breakdown(x_good, beta_val):
        emit("gmres_breakdown", iterations=total_iters, restarts=n_restarts)
        return GMRESResult(
            x=x_good, converged=False, n_iterations=total_iters,
            n_restarts=n_restarts, residual_norm=float(beta_val),
            history=history, breakdown=True,
        )

    while total_iters < maxiter:
        with span("gmres.matvec", kind="residual"):
            r = b - maybe_corrupt("gmres.matvec", np.asarray(matvec(x)))
        beta = np.linalg.norm(r)
        rel = beta / bnorm
        if not history:
            history.append(float(rel))
        if not np.isfinite(beta):
            return _breakdown(x, beta)
        if rel <= tol:
            return GMRESResult(
                x=x, converged=True, n_iterations=total_iters,
                n_restarts=n_restarts, residual_norm=float(beta), history=history,
            )
        if prev_cycle_rel is not None and stagnation_cycles > 0:
            if rel > stagnation_factor * prev_cycle_rel:
                stagnant_cycles += 1
            else:
                stagnant_cycles = 0
            if stagnant_cycles >= stagnation_cycles:
                emit("gmres_stagnation", iterations=total_iters,
                     restarts=n_restarts, rel_residual=float(rel))
                return GMRESResult(
                    x=x, converged=False, n_iterations=total_iters,
                    n_restarts=n_restarts, residual_norm=float(beta),
                    history=history, stagnated=True,
                )
        prev_cycle_rel = float(rel)

        m = min(restart, maxiter - total_iters)
        with span("gmres.cycle", restart=n_restarts, start_iter=total_iters):
            V = np.zeros((m + 1, n))
            H = np.zeros((m + 1, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            V[0] = r / beta
            g[0] = beta
            k_done = 0

            for k in range(m):
                # copy: a matvec may return its input (e.g. the identity),
                # and Gram-Schmidt below modifies w in place
                with span("gmres.matvec", iteration=total_iters):
                    w = np.array(matvec(V[k]), dtype=np.float64, copy=True)
                w = maybe_corrupt("gmres.matvec", w)
                if not np.all(np.isfinite(w)):
                    return _breakdown(x, beta)
                # modified Gram-Schmidt
                for j in range(k + 1):
                    H[j, k] = np.dot(w, V[j])
                    w -= H[j, k] * V[j]
                H[k + 1, k] = np.linalg.norm(w)
                if H[k + 1, k] > 1e-14 * beta:
                    V[k + 1] = w / H[k + 1, k]
                # apply previous Givens rotations to the new column
                for j in range(k):
                    t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                    H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                    H[j, k] = t
                # new rotation to annihilate H[k+1, k]
                denom = np.hypot(H[k, k], H[k + 1, k])
                if denom == 0.0:
                    cs[k], sn[k] = 1.0, 0.0
                else:
                    cs[k] = H[k, k] / denom
                    sn[k] = H[k + 1, k] / denom
                H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
                H[k + 1, k] = 0.0
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]

                total_iters += 1
                k_done = k + 1
                rel = abs(g[k + 1]) / bnorm
                history.append(float(rel))
                if obs_on:
                    _observe_residual(float(rel))
                if callback is not None:
                    callback(float(rel))
                if rel <= tol:
                    break

            # solve the small triangular system and update x
            y = np.zeros(k_done)
            for i in range(k_done - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1 : k_done] @ y[i + 1 : k_done]) / H[i, i]
            x = x + V[:k_done].T @ y
            n_restarts += 1

        if rel <= tol:
            with span("gmres.matvec", kind="residual"):
                r = b - matvec(x)
            return GMRESResult(
                x=x, converged=True, n_iterations=total_iters,
                n_restarts=n_restarts, residual_norm=float(np.linalg.norm(r)),
                history=history,
            )

    with span("gmres.matvec", kind="residual"):
        r = b - matvec(x)
    return GMRESResult(
        x=x, converged=False, n_iterations=total_iters, n_restarts=n_restarts,
        residual_norm=float(np.linalg.norm(r)), history=history,
    )
