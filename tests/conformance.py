"""The shared geometries and Theorem-1 chain check of the conformance
suite (``tests/test_conformance.py``) and the random-tolerance sweep of
``tests/test_variable_order_property.py``; pytest does not collect it.
A new geometry is one :data:`GEOMETRIES` entry: every evaluator runs it.
"""

import numpy as np

from repro.bem.geometries import icosphere
from repro.bem.operator import SingleLayerOperator
from repro.data.distributions import gaussian_blob, uniform_cube


def _part_coincident(n, rng):
    pts = rng.random((n, 3))
    pts[: n // 4] = pts[0]
    return pts


#: ``(n, 3)`` clouds from ``(n, rng)``: smooth and clustered densities, a line,
#: a plane, every point or a quarter of them equal, every point twice.
GEOMETRIES = {
    "uniform": lambda n, rng: uniform_cube(n, seed=int(rng.integers(1 << 30))),
    "gaussian": lambda n, rng: gaussian_blob(n, seed=int(rng.integers(1 << 30))),
    "collinear": lambda n, rng: np.stack([np.zeros(n), np.zeros(n), rng.random(n)], 1),
    "planar": lambda n, rng: np.stack([rng.random(n), rng.random(n), np.zeros(n)], 1),
    "coincident": lambda n, rng: np.tile(rng.random(3), (n, 1)),
    "part-coincident": _part_coincident,
    "duplicate": lambda n, rng: np.concatenate([rng.random((n // 2, 3))] * 2),
}


def bem_surface():
    """The BEM surface: the single-layer operator on ``icosphere(2)``.
    The density ``4π`` has the quadrature weights as charges, which its
    treecode is built with."""
    return SingleLayerOperator(icosphere(2))


def assert_chain(res, exact, plan=None, tol=None, slack=0.0):
    """Per target and column, ``|potential - exact| <= error_bound + slack``;
    with ``tol``, also column 0's ledger <= ``plan.predicted_ledger_max``
    <= ``tol``.  Column 0 holds the charges the plan was compiled against,
    where its budget is anchored: other columns meet only their ledgers."""
    err, bound = np.abs(res.potential - exact), res.error_bound
    assert bound.shape == err.shape == np.shape(exact)
    i = tuple(np.argwhere(err > bound + slack)[:1].ravel())
    assert not i, f"at {i}: error {err[i]:.3e} > ledger {bound[i]:.3e} + {slack:.1e}"
    if tol is not None:
        ledger = (bound if bound.ndim == 1 else bound[:, 0]).max()
        assert ledger <= plan.predicted_ledger_max * (1 + 1e-12), ledger
        assert plan.predicted_ledger_max <= tol * (1 + 1e-12), plan.predicted_ledger_max
