"""The level-synchronous set-up against its per-node originals.

:func:`~repro.tree.octree.build_octree` splits a whole octree level per
step and :meth:`~repro.core.treecode.Treecode.traverse` walks a frontier
of ``(node, target)`` pairs one level per step; both must reproduce the
per-node oracles in ``treecode_reference`` bitwise — every ``Octree``
array with its dtype, the far pairs in depth-first preorder, and every
near block.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.bem.geometries import propeller
from repro.bem.quadrature import mesh_quadrature
from repro.core.treecode import Treecode
from repro.data.distributions import make_distribution
from repro.tree.octree import build_octree

from treecode_reference import reference_octree, reference_traverse


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def assert_tree_matches(points, charges, **kw):
    tree = build_octree(points, charges, **kw)
    tree.validate()
    ref = reference_octree(points, charges, **kw)
    for f in fields(tree):
        assert _same(getattr(tree, f.name), getattr(ref, f.name)), f.name
    return tree


def assert_lists_match(tc, targets, self_targets):
    lists = tc.traverse(targets, self_targets)
    fn, ft, near = reference_traverse(tc.tree, targets, tc.alpha)
    assert _same(lists.far_nodes, fn)
    assert _same(lists.far_targets, ft)
    assert len(lists.near) == len(near)
    for (leaf, tids), (rleaf, rtids) in zip(lists.near, near):
        assert _same(leaf, rleaf)
        assert _same(tids, rtids)
    return lists


def _cloud(kind, n, rng):
    if kind == "collinear":
        return np.c_[np.linspace(0.0, 1.0, n), np.zeros(n), np.zeros(n)]
    if kind == "coincident":
        return np.full((n, 3), 0.3)
    if kind == "duplicates":
        return np.repeat(rng.random((n // 20, 3)), 20, axis=0)
    return make_distribution(kind, n, seed=int(rng.integers(1 << 30)))


CLOUDS = ["uniform", "gaussian", "collinear", "coincident", "duplicates"]


@pytest.mark.parametrize("leaf_size", [1, 16, 32])
@pytest.mark.parametrize("kind", CLOUDS)
def test_cloud_matches_oracles(kind, leaf_size, rng):
    n = 400 if leaf_size == 1 else 2000
    pts = _cloud(kind, n, rng)
    q = rng.uniform(-1.0, 1.0, n)
    tree = assert_tree_matches(pts, q, leaf_size=leaf_size)
    tc = Treecode(pts, q, alpha=0.5, tree=tree)
    assert_lists_match(tc, tree.points, True)
    outside = rng.uniform(-0.5, 1.5, (300, 3))
    assert_lists_match(tc, np.concatenate([outside, pts[:50]]), False)


def test_corner_cloud_boxes_contain_their_particles(rng):
    """100 points coincident at (1, 1, 1): their keys sit where float64
    cannot tell a key from the next child's first key, and a float64
    search put them 9 half sizes outside their level-18..20 boxes.  The
    exact search keeps every particle inside its node's box (up to the
    rounding of the box centres)."""
    pts, q = np.ones((100, 3)), rng.uniform(-1.0, 1.0, 100)
    tree = assert_tree_matches(pts, q)
    cnt = tree.end - tree.start
    node = np.repeat(np.arange(tree.n_nodes), cnt)
    part = np.arange(cnt.sum()) + np.repeat(tree.start - (np.cumsum(cnt) - cnt), cnt)
    off = np.abs(tree.points[part] - tree.center_geom[node]).max(axis=1)
    assert np.all(off <= tree.half_size[node] * (1 + 1e-9))


def test_single_particle():
    pts, q = np.array([[0.1, 0.2, 0.3]]), np.array([2.0])
    tree = assert_tree_matches(pts, q)
    assert tree.n_nodes == 1
    tc = Treecode(pts, q, tree=tree)
    lists = assert_lists_match(tc, tree.points, True)
    assert lists.far_nodes.size == 0 and len(lists.near) == 1
    assert_lists_match(tc, np.array([[1.0, 1.0, 1.0], [0.1, 0.2, 0.3]]), False)
    assert_lists_match(tc, np.empty((0, 3)), False)


def test_depth_capped_cloud(rng):
    pts = rng.random((1500, 3))
    q = rng.uniform(-1.0, 1.0, 1500)
    tree = assert_tree_matches(pts, q, leaf_size=1, max_depth=3)
    assert tree.height == 4
    assert (tree.end - tree.start)[tree.leaf_ids()].max() > 1
    assert_lists_match(Treecode(pts, q, tree=tree), tree.points, True)


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_box_centres(kind, rng):
    pts = _cloud(kind, 2000, rng)
    q = rng.uniform(0.1, 1.0, 2000)
    tree = assert_tree_matches(pts, q, leaf_size=16, expansion_center="box")
    for alpha in (0.3, 0.7):
        tc = Treecode(pts, q, alpha=alpha, tree=tree)
        assert_lists_match(tc, tree.points, True)


def test_target_blocks_join_in_preorder(rng, monkeypatch):
    """Targets walked in several blocks merge into one preorder list."""
    import repro.core.treecode as treecode

    pts = rng.random((3000, 3))
    q = rng.uniform(-1.0, 1.0, 3000)
    tc = Treecode(pts, q, tree=assert_tree_matches(pts, q, leaf_size=16))
    monkeypatch.setattr(treecode, "_TARGET_BLOCK", 97)
    assert_lists_match(tc, tc.tree.points, True)


def test_propeller_gauss_points():
    """The Table-3 propeller: the BEM operator's octree over the Gauss
    points, walked by the mesh vertices and by the points themselves."""
    mesh = propeller(blade_res=16, hub_res=16)
    pts, w, _ = mesh_quadrature(mesh, 6)
    tree = assert_tree_matches(pts, w, leaf_size=32)
    tc = Treecode(pts, w, leaf_size=32, tree=tree)
    assert_lists_match(tc, mesh.vertices, False)
    assert_lists_match(tc, tree.points, True)
