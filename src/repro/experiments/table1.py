"""Experiment E1/E2 — Table 1: error and term counts, original vs improved.

For each problem size and distribution the original (fixed-degree) and
improved (adaptive-degree, Theorem 3) Barnes-Hut methods are run at the
same ``p0`` and MAC parameter; we report the paper's metrics — the
relative 2-norm simulation error and the number of multipole terms
evaluated — plus the accumulated Theorem-1 error bound, whose growth
(≈ n^(2/3) for the original method, ≈ log n for the improved one) is
the analytical shape Table 1 and Figure 2 demonstrate.

Charges are random ±1 (the paper's motivating protein-simulation regime:
uniform |charge| density, mixed signs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import relative_l2_error
from ..core.degree import AdaptiveChargeDegree, FixedDegree
from ..core.treecode import Treecode
from ..data.distributions import make_distribution, unit_charges
from ..direct import direct_potential

__all__ = [
    "Table1Row",
    "run_table1",
    "run_variable_order_case",
    "DEFAULT_STRUCTURED_N",
    "DEFAULT_UNSTRUCTURED",
]

DEFAULT_STRUCTURED_N = [2000, 4000, 8000, 16000]
DEFAULT_UNSTRUCTURED = [("gaussian", 8000), ("overlapping_gaussians", 12000)]


@dataclass
class Table1Row:
    distribution: str
    n: int
    err_orig: float
    err_new: float
    bound_orig: float
    bound_new: float
    terms_orig: int
    terms_new: int
    degrees_new: tuple

    def as_list(self):
        return [
            self.distribution,
            self.n,
            self.err_orig,
            self.err_new,
            self.bound_orig,
            self.bound_new,
            self.terms_orig,
            self.terms_new,
            f"{self.degrees_new[0]}..{self.degrees_new[1]}",
        ]

    HEADERS = [
        "dist",
        "n",
        "err(orig)",
        "err(new)",
        "bound(orig)",
        "bound(new)",
        "terms(orig)",
        "terms(new)",
        "p(new)",
    ]


def run_case(
    distribution: str, n: int, p0: int = 4, alpha: float = 0.4, seed: int | None = None
) -> Table1Row:
    """Run one Table-1 row: both methods on the same instance."""
    seed = n if seed is None else seed
    pts = make_distribution(distribution, n, seed=seed)
    q = unit_charges(n, seed=seed + 1, signed=True)
    ref = direct_potential(pts, q)

    out = {}
    for name, policy in (
        ("orig", FixedDegree(p0)),
        ("new", AdaptiveChargeDegree(p0=p0, alpha=alpha)),
    ):
        tc = Treecode(pts, q, degree_policy=policy, alpha=alpha)
        res = tc.evaluate(accumulate_bounds=True)
        out[name] = (
            relative_l2_error(res.potential, ref),
            float(np.linalg.norm(res.error_bound) / np.linalg.norm(ref)),
            int(res.stats.n_terms),
            (int(tc.p_eval.min()), int(tc.p_eval.max())),
        )
    return Table1Row(
        distribution=distribution,
        n=n,
        err_orig=out["orig"][0],
        err_new=out["new"][0],
        bound_orig=out["orig"][1],
        bound_new=out["new"][1],
        terms_orig=out["orig"][2],
        terms_new=out["new"][2],
        degrees_new=out["new"][3],
    )


def run_variable_order_case(
    distribution: str,
    n: int,
    tol: float,
    alpha: float = 0.4,
    seed: int | None = None,
    mode: str = "target",
) -> dict:
    """Target-accuracy variable-order plan on one Table-1 instance.

    Compiles a plan with per-interaction degree selection for ``tol``
    (see :meth:`~repro.core.treecode.Treecode.compile_plan`) and checks
    the containment chain the compiler guarantees: measured max error
    <= a-posteriori Theorem-1 ledger <= ``tol``.  Returns a summary dict
    (max error, ledger maxima, selected degree range, terms evaluated).
    Target-major mode is the default — it matches Table 1's
    particle-cluster MAC semantics; pass ``mode="cluster"`` to exercise
    the dual-MAC plan (box-centred, lattice M2L) on the same instance.
    """
    seed = n if seed is None else seed
    pts = make_distribution(distribution, n, seed=seed)
    q = unit_charges(n, seed=seed + 1, signed=True)
    ref = direct_potential(pts, q)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=alpha)
    plan = tc.compile_plan(mode=mode, tol=tol, accumulate_bounds=True)
    res = plan.execute(q)
    max_err = float(np.abs(res.potential - ref).max())
    max_ledger = float(res.error_bound.max())
    return {
        "distribution": distribution,
        "n": n,
        "tol": float(tol),
        "mode": mode,
        "max_err": max_err,
        "max_ledger": max_ledger,
        "predicted_ledger": float(plan.predicted_ledger_max),
        "p_min": int(plan.pair_degrees.min()) if plan.pair_degrees.size else 0,
        "p_max": int(plan.pair_degrees.max()) if plan.pair_degrees.size else 0,
        "terms": int(res.stats.n_terms),
        "contained": bool(max_err <= max_ledger <= tol),
    }


def run_table1(
    structured_n: list[int] | None = None,
    unstructured: list[tuple[str, int]] | None = None,
    p0: int = 4,
    alpha: float = 0.4,
    seed: int | None = None,
) -> list[Table1Row]:
    """Full Table 1: structured (uniform) rows then unstructured rows.

    ``seed`` offsets every per-instance seed (default: the instance size
    ``n``, the historical convention), keeping rows distinct but the
    whole table reproducible end to end from one ``--seed``.
    """
    structured_n = DEFAULT_STRUCTURED_N if structured_n is None else structured_n
    unstructured = DEFAULT_UNSTRUCTURED if unstructured is None else unstructured

    def inst_seed(n: int) -> int | None:
        return None if seed is None else seed + n

    rows = [
        run_case("uniform", n, p0=p0, alpha=alpha, seed=inst_seed(n))
        for n in structured_n
    ]
    rows += [
        run_case(dist, n, p0=p0, alpha=alpha, seed=inst_seed(n))
        for dist, n in unstructured
    ]
    return rows
