"""Conformance of the compiled FMM: the lattice M2L against per-pair
``translations.m2l``, every geometry and charge shape against direct
summation, and the operation counts of a fixed cloud."""

import numpy as np
import pytest

from repro.data.distributions import gaussian_blob
from repro.direct import direct_potential
from repro.fmm import UniformFMM, level_degrees
from repro.multipole.harmonics import ncoef
from repro.multipole.translations import m2l


def _reference_m2l(self, plan, l, M, Lloc):
    """V-list M2L of level ``l`` pair by pair with ``translations.m2l``:
    target and source cells are well separated (more than one cell
    apart on some axis) and their parents are neighbours."""
    p = self.degrees[l]
    nc = ncoef(p)
    pos = self._coords(l)
    apart = np.abs(pos[None, :, :] - pos[:, None, :]).max(axis=2) > 1
    parents = np.abs((pos[None, :, :] >> 1) - (pos[:, None, :] >> 1)).max(axis=2)
    tgt, src = np.nonzero(apart & (parents <= 1))
    centers = self._cell_centers(l)
    d = centers[src] - centers[tgt]
    X = M[src][..., :nc]
    if X.ndim == 3:  # (pairs, k, nc): one displacement row per column
        k = X.shape[1]
        out = m2l(X.reshape(-1, nc), np.repeat(d, k, axis=0), p, p)
        out = out.reshape(X.shape)
    else:
        out = m2l(X, d, p, p)
    np.add.at(Lloc, tgt, out)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("schedule", ["p4", "p8", "c1.5", "batch"])
def test_lattice_m2l_matches_per_pair_reference(level, schedule, monkeypatch):
    rng = np.random.default_rng(11)
    pts = rng.random((800, 3))
    q = rng.uniform(-1, 1, 800)
    degrees = {
        "p4": 4,
        "p8": 8,
        "c1.5": level_degrees(4, level + 1, c=1.5),
        "batch": 4,
    }[schedule]
    if schedule == "batch":
        q = np.stack([q, rng.uniform(-1, 1, 800), -q], axis=1)
    got = UniformFMM(pts, q, level=level, degrees=degrees).evaluate()
    monkeypatch.setattr(UniformFMM, "_m2l_level", _reference_m2l)
    ref = UniformFMM(pts, q, level=level, degrees=degrees).evaluate()
    assert got.shape == ref.shape == q.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


GEOMETRIES = {
    "collinear": lambda n, r: np.stack([np.zeros(n), np.zeros(n), r.random(n)], 1),
    "coincident": lambda n, r: np.tile(r.random(3), (n, 1)),
    "duplicate": lambda n, r: np.concatenate([r.random((n // 2, 3))] * 2),
    "planar": lambda n, r: np.stack([r.random(n), r.random(n), np.zeros(n)], 1),
    "gaussian": lambda n, r: gaussian_blob(n, seed=int(r.integers(1 << 30))),
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("shape", ["(n,)", "(n, 1)", "(n, k)"])
def test_geometries_against_direct(geometry, level, shape):
    rng = np.random.default_rng(5)
    n = 600
    pts = GEOMETRIES[geometry](n, rng)
    q = rng.uniform(-1, 1, {"(n,)": (n,), "(n, 1)": (n, 1), "(n, k)": (n, 3)}[shape])
    phi = UniformFMM(pts, q, level=level, degrees=8).evaluate()
    ref = direct_potential(pts, q)
    assert phi.shape == ref.shape == q.shape
    if geometry == "coincident":  # every pair coincides: exactly zero
        assert np.array_equal(phi, ref)
        return
    err = np.linalg.norm(phi - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert np.all(err <= 5e-5), err


def test_rising_degrees_reach_the_leaves():
    """A degree list that rises toward the leaves: L2L hands each child
    the leading coefficients both degrees hold."""
    rng = np.random.default_rng(3)
    pts = rng.random((1500, 3))
    q = rng.uniform(-1, 1, 1500)
    ref = direct_potential(pts, q)
    phi = UniformFMM(pts, q, level=3, degrees=[4, 4, 4, 6]).evaluate()
    fixed = UniformFMM(pts, q, level=3, degrees=4).evaluate()
    err = np.linalg.norm(phi - ref) / np.linalg.norm(ref)
    assert err <= np.linalg.norm(fixed - ref) / np.linalg.norm(ref)
    assert err < 2e-3


def test_operation_counts_pinned():
    """Counts of a fixed cloud: the V-list and neighbour pair sets."""
    rng = np.random.default_rng(7)
    pts = rng.random((3000, 3))
    q = rng.uniform(-1, 1, 3000)
    fmm = UniformFMM(pts, q, level=3, degrees=6)
    fmm.evaluate()
    assert fmm.stats.n_m2l == 56448
    assert fmm.stats.n_terms_m2l == 2765952
    assert fmm.stats.n_pp_pairs == 365718
