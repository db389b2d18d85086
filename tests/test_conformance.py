"""Theorem-1 conformance against direct summation: measured error <=
a-posteriori ledger <= compile-time prediction <= tol, over evaluator ×
geometry (``tests/conformance.py``) × charge shape.  Column 0 of a batch
holds the charges the treecode is built with; ``(n,)``/``(n, 1)`` are it."""

import functools

import numpy as np
import pytest
from conformance import GEOMETRIES, assert_chain, bem_surface

from repro import FixedDegree, Treecode
from repro.direct import direct_potential
from repro.fmm import UniformFMM
from repro.perf.cluster import ClusterPlan
from repro.tree.dualtree import VList

N, K = 400, 3
SHAPES = ["(n,)", "(n, 1)", "(n, k)"]


def _shaped(Q, shape):
    return {"(n,)": Q[:, 0], "(n, 1)": Q[:, :1], "(n, k)": Q}[shape]


@functools.cache
def _cloud(geometry):
    """Points (or the BEM operator), charges (or densities), exact potentials."""
    rng = np.random.default_rng(9)
    if geometry == "bem-surface":
        op = bem_surface()
        V, s = op.mesh.n_vertices, 4 * np.pi
        sigma = np.column_stack([np.full(V, s), rng.uniform(-s, s, (V, K - 1))])
        return op, sigma, op.exact_potential(sigma)
    pts = GEOMETRIES[geometry](N, rng)
    Q = rng.uniform(-1.0, 1.0, (N, K))
    return pts, Q, direct_potential(pts, Q)


def _every_cut(pts, q):
    """Cluster plans pinned at every cut, at tol=1e-6 and fixed degree.
    A near-only cut has an all-zero ledger but rounds unlike direct
    summation: the suite's one slack, ``1e-12·max|exact|``."""
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    for cut in range(1, max(2, tc.tree.height)):
        for tol in (1e-6, None):
            yield ClusterPlan(
                tc, tc.tree.points, tol=tol, accumulate_bounds=True,
                cut=min(cut, tc.tree.height - 1),
            ), tol, 1e-12


def _leaf8(mode, tol):
    def plans(pts, q):
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), leaf_size=8)
        kw = dict(mode=mode, tol=tol, accumulate_bounds=True)
        yield tc.compile_plan(**kw), tol, 0.0

    return plans


def _fmm(level):
    def plans(pts, q):
        tc = UniformFMM(pts, q, level=level, degrees=6).tc
        kw = dict(mode="cluster", criterion=VList(), accumulate_bounds=True)
        yield tc.compile_plan(**kw), None, 0.0

    return plans


def _bem(tol):
    def plans(op, sigma):
        kw = dict(tol=tol, accumulate_bounds=True, source_map=op.source_map)
        yield op.treecode.compile_plan(op.mesh.vertices, **kw), tol, 0.0

    return plans


#: Generators of ``(plan, tol, relative slack)``; a new evaluator is one entry.
EVALUATORS = {
    "cluster-every-cut": _every_cut,
    "cluster-tol1e-3": _leaf8("cluster", 1e-3),
    "cluster-tol1e-5": _leaf8("cluster", 1e-5),
    "target-tol1e-3": _leaf8("target", 1e-3),
    "target-tol1e-5": _leaf8("target", 1e-5),
    "target-fixed": _leaf8("target", None),
    "fmm-L2": _fmm(2),
    "fmm-L3": _fmm(3),
    "bem-fixed": _bem(None),
    "bem-tol1e-3": _bem(1e-3),
    "bem-tol1e-5": _bem(1e-5),
}

#: Cluster tol plans rebuild most high-degree operators on every execute (353
#: of 444 keys on the Gaussian cloud at 1e-5): to stay within the time of the
#: tests this suite replaced, the cluster evaluators run ``(n,)`` on the clouds
#: those tests used and the coincident cloud in every shape.
_TOL = {"uniform", "gaussian", "collinear", "part-coincident", "duplicate"}
_CLUSTER = dict.fromkeys(("cluster-every-cut", "cluster-tol1e-3", "cluster-tol1e-5"), _TOL)
CASES = [
    (ev, geo, shape)
    for ev in EVALUATORS
    for geo in (["bem-surface"] if ev.startswith("bem") else GEOMETRIES)
    for shape in SHAPES
    if ev not in _CLUSTER or geo == "coincident" or shape == "(n,)" and geo in _CLUSTER[ev]
]


@functools.lru_cache(maxsize=1)
def _plans(evaluator, geometry):
    pts, Q, _ = _cloud(geometry)
    return list(EVALUATORS[evaluator](pts, Q[:, 0]))


@pytest.mark.parametrize("evaluator,geometry,shape", CASES)
def test_chain(evaluator, geometry, shape):
    _, Q, exact = _cloud(geometry)
    Q, exact = _shaped(Q, shape), _shaped(exact, shape)
    far = False
    for plan, tol, slack in _plans(evaluator, geometry):
        res = plan.execute(Q)
        assert_chain(res, exact, plan, tol, slack * np.abs(exact).max())
        far |= bool(np.any(res.error_bound > 0))
    assert far != (geometry == "coincident")  # the one cloud with no far field


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_treecode_evaluate(geometry):
    """``Treecode.evaluate`` takes the treecode's own ``(n,)`` charges."""
    pts, Q, exact = _cloud(geometry)
    tc = Treecode(pts, Q[:, 0], degree_policy=FixedDegree(4), leaf_size=8)
    assert_chain(tc.evaluate(accumulate_bounds=True), exact[:, 0])


@functools.lru_cache(maxsize=1)
def _fmm8(level, geometry):
    pts, Q, _ = _cloud(geometry)
    return UniformFMM(pts, Q, level=level, degrees=8)


@pytest.mark.parametrize(
    "level,geometry,shape", [(lv, g, s) for lv in (2, 3) for g in GEOMETRIES for s in SHAPES]
)
def test_fmm_against_direct(level, geometry, shape):
    """``UniformFMM.evaluate`` at degree 8: relative L2 error <= 5e-5 per
    column, and bitwise the zero potential where every pair coincides."""
    _, Q, exact = _cloud(geometry)
    fmm = _fmm8(level, geometry)
    fmm.set_charges(_shaped(Q, shape))
    phi, exact = fmm.evaluate(), _shaped(exact, shape)
    assert phi.shape == exact.shape
    if geometry == "coincident":
        assert np.array_equal(phi, exact)
    else:
        err = np.linalg.norm(phi - exact, axis=0) / np.linalg.norm(exact, axis=0)
        assert np.all(err <= 5e-5), err
