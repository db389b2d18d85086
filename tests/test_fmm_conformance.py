"""Conformance of the FMM, which is the cluster plan under the V-list
criterion: its folded lattice M2L against per-pair ``translations.m2l``,
its traversal against the FMM's lists, rising degrees and the operation
counts of a fixed cloud (direct summation: ``tests/test_conformance.py``)."""

import numpy as np
import pytest
from test_lattice_m2l import _folded_vs_per_pair

from repro.data.distributions import gaussian_blob
from repro.direct import direct_potential
from repro.fmm import UniformFMM, level_degrees
from repro.perf.cluster import _box_view
from repro.tree.dualtree import BoxMAC, VList, dual_traverse
from repro.tree.octree import build_octree


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("schedule", ["p4", "p8", "c1.5", "batch"])
def test_lattice_m2l_matches_per_pair_reference(level, schedule):
    """Every V-list pair is same-level, and each level's M2L runs at that
    level's degree."""
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
    fmm = UniformFMM(pts, q, level=level, degrees=degrees)
    assert fmm.evaluate().shape == q.shape
    worst, octs, steps, degs, _ = _folded_vs_per_pair(fmm.plan, q)
    assert octs == set(range(8)) and steps == {0}
    assert degs == set(fmm.degrees[2:])
    assert worst <= 1e-12


def _cells(view, nodes):
    """Integer grid coordinates of ``nodes`` at their own level."""
    h = view.half_size[nodes, None]
    return np.floor((view.center_geom[nodes] - view.domain_lo) / (2 * h)).astype(int)


@pytest.mark.parametrize("level", [2, 3])
def test_vlist_traversal_emits_the_fmm_lists(level):
    """On a uniform-depth octree the V-list criterion's far pairs are
    exactly every level's V-list (same level, not adjacent, parents
    adjacent) and its near pairs the 27-neighbour leaf pairs; together
    they cover every particle pair once."""
    rng = np.random.default_rng(2)
    pts = rng.random((1500, 3))
    tree = build_octree(pts, np.ones(1500), leaf_size=1, max_depth=level)
    view, _, _ = _box_view(tree)
    assert view.height == level + 1
    assert np.all(view.level[view.leaf_ids()] == level)
    pairs = dual_traverse(view, VList())
    got = set(zip(pairs.far_src.tolist(), pairs.far_tgt.tolist()))
    assert len(got) == pairs.n_far
    want = set()
    for l in range(2, level + 1):
        nodes = view.nodes_at_level(l)
        c = _cells(view, nodes)
        apart = np.abs(c[:, None] - c[None]).max(axis=2) > 1
        par = np.abs(c[:, None] // 2 - c[None] // 2).max(axis=2) <= 1
        s, t = np.nonzero(apart & par)
        want |= set(zip(nodes[s].tolist(), nodes[t].tolist()))
    assert got == want
    leaves = view.nodes_at_level(level)
    c = _cells(view, leaves)
    s, t = np.nonzero(np.abs(c[:, None] - c[None]).max(axis=2) <= 1)
    near = set(zip(pairs.near_src.tolist(), pairs.near_tgt.tolist()))
    assert near == set(zip(leaves[s].tolist(), leaves[t].tolist()))
    cnt = view.end - view.start
    covered = np.sum(cnt[pairs.far_src] * cnt[pairs.far_tgt])
    covered += np.sum(cnt[pairs.near_src] * cnt[pairs.near_tgt])
    assert covered == 1500**2


def test_boxmac_is_the_alpha_traversal():
    """A bare α is read as ``BoxMAC(α)``: the same pairs, in the same
    order, bitwise."""
    view, _, _ = _box_view(build_octree(gaussian_blob(3000, seed=4), np.ones(3000)))
    a, b = dual_traverse(view, 0.5), dual_traverse(view, BoxMAC(0.5))
    for f in ("far_src", "far_tgt", "far_r", "near_src", "near_tgt"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    with pytest.raises(ValueError):
        BoxMAC(1.0)


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
    """Counts of a fixed cloud: the V-list pairs of levels 2 and 3 (3,096
    + 52,722; 2 of the 512 leaf cells are empty and take no pair), and
    the near field's entries over 27-neighbour leaf pairs, coincident
    self pairs included."""
    rng = np.random.default_rng(7)
    pts = rng.random((3000, 3))
    q = rng.uniform(-1, 1, 3000)
    fmm = UniformFMM(pts, q, level=3, degrees=6)
    fmm.evaluate()
    assert fmm.stats.n_m2l == 55818
    assert fmm.stats.n_terms_m2l == 55818 * 49
    assert fmm.stats.n_pp_pairs == 365718
