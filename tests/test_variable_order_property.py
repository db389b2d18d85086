"""Property test for variable-order plans: over random geometries and
random tolerances, the containment chain

    measured max error  <=  a-posteriori Theorem-1 ledger  <=  tol

must hold for every feasible compile, and infeasible tolerances must
refuse (raise :class:`DegreeSelectionError`) rather than clamp.  The
per-level ledger accounting must stay exact either way."""

import numpy as np
import pytest

from repro import DegreeSelectionError, FixedDegree, Treecode
from repro.data.distributions import make_distribution
from repro.direct import pairwise_potential


def _geometry(kind: str, n: int, rng):
    if kind == "collinear":
        # points on a line — degenerate boxes stress the a/r geometry
        # terms of the bound and the budget push-down
        t = np.sort(rng.random(n))
        pts = np.column_stack([t, np.full(n, 0.5), np.full(n, 0.5)])
        return np.ascontiguousarray(pts)
    return make_distribution(kind, n, seed=int(rng.integers(1 << 30)))


CASES = [
    ("uniform", "target"),
    ("uniform", "cluster"),
    ("gaussian", "target"),
    ("gaussian", "cluster"),
    ("collinear", "target"),
    ("collinear", "cluster"),
]


@pytest.mark.parametrize("seed,kind,mode", [
    (1000 + i, kind, mode) for i, (kind, mode) in enumerate(CASES)
])
def test_containment_over_random_tolerances(seed, kind, mode):
    rng = np.random.default_rng(seed)
    n = 250
    pts = _geometry(kind, n, rng)
    q = rng.uniform(-1.0, 1.0, n)
    exact = pairwise_potential(pts, pts, q, exclude=np.arange(n))
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)

    feasible = 0
    for _ in range(6):
        tol = float(10.0 ** rng.uniform(-10, -2))
        try:
            plan = tc.compile_plan(mode=mode, tol=tol, accumulate_bounds=True)
        except DegreeSelectionError as err:
            # refusal is the contract for infeasible budgets: the worst
            # offender really is over budget at the cap, and no plan
            # object leaks out half-compiled
            assert err.worst["achieved_bound"] > err.worst["budget"]
            continue
        feasible += 1
        assert mode == "target" or plan.n_box_pairs > 0
        res = plan.execute(q)
        max_err = float(np.abs(res.potential - exact).max())
        max_ledger = float(res.error_bound.max())
        assert max_err <= max_ledger + 1e-15, (
            f"{kind}/{mode} tol={tol:.3e}: measured {max_err:.3e} "
            f"escapes ledger {max_ledger:.3e}"
        )
        assert max_ledger <= tol * (1.0 + 1e-12), (
            f"{kind}/{mode} tol={tol:.3e}: ledger {max_ledger:.3e} > tol"
        )
        # compile-time prediction bounds the a-posteriori ledger too
        assert max_ledger <= plan.predicted_ledger_max * (1.0 + 1e-9)
        # per-level ledger accounting is exact: the level decomposition
        # sums back to the total per-target ledger
        by_level = sum(res.stats.bound_by_level.values())
        assert by_level == pytest.approx(
            float(np.sum(res.error_bound)), rel=1e-9
        )
    assert feasible > 0, f"{kind}/{mode}: no feasible tolerance sampled"
