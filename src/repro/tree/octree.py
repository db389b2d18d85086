"""Adaptive octree over Morton-sorted particles.

The tree is stored as a structure of arrays.  Particles are sorted by
Morton key once; every node then owns a *contiguous slice*
``[start, end)`` of the sorted particle arrays, so per-node reductions
and near-field interactions are plain vectorized slices.

Construction is level-synchronous: a whole level is split at once by
one ``searchsorted`` of every child's key-range start over the sorted
key array (each child of a depth-``d`` node is the sub-slice whose keys
share a ``3(d+1)``-bit prefix), and the level's children, parents and
centres are built as arrays.  Node ids are breadth-first with octants
ascending, so children of a node — and all nodes of a level — are
contiguous in the node arrays.

Per-node aggregates maintained for the treecode:

``abs_charge``
    ``A = sum_i |q_i|`` — the quantity the paper's error bounds (Thm 1/2)
    and the adaptive degree selection (Thm 3) are driven by.
``net_charge``
    ``sum_i q_i``.
``center_exp``
    Expansion center.  Default is the |q|-weighted centroid (the paper's
    "center of mass of the cluster"; weighting by ``|q|`` keeps it
    defined for mixed-sign charge systems), optionally the geometric box
    center.
``radius``
    Exact max distance from ``center_exp`` to any particle of the node —
    the radius ``a`` of the enclosing sphere in Theorem 1.  Using the
    exact radius instead of the half-diagonal tightens both the MAC and
    the error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .morton import MAX_DEPTH, morton_key

__all__ = ["Octree", "build_octree", "enclosing_radius"]


@dataclass
class Octree:
    """Adaptive octree with per-node charge aggregates.

    Use :func:`build_octree` to construct.  All node attributes are
    NumPy arrays indexed by node id; node 0 is the root.  Particle
    arrays (``points``, ``charges``) are stored in Morton order;
    ``perm`` maps sorted position -> original index.
    """

    # particle data (Morton-sorted)
    points: np.ndarray
    charges: np.ndarray
    perm: np.ndarray

    # domain
    domain_lo: np.ndarray
    domain_hi: np.ndarray

    # node structure
    level: np.ndarray
    parent: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray
    start: np.ndarray
    end: np.ndarray
    center_geom: np.ndarray
    half_size: np.ndarray

    # aggregates
    center_exp: np.ndarray
    radius: np.ndarray
    abs_charge: np.ndarray
    net_charge: np.ndarray

    # configuration
    leaf_size: int
    expansion_center: str

    # level structure: levels[d] is the contiguous node-id range (lo, hi)
    level_ranges: list = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.level)

    @property
    def n_particles(self) -> int:
        return len(self.charges)

    @property
    def height(self) -> int:
        """Number of levels (root level counts as 1)."""
        return len(self.level_ranges)

    def children(self, i: int) -> np.ndarray:
        """Node ids of the children of node ``i``."""
        fc = self.first_child[i]
        return np.arange(fc, fc + self.n_children[i])

    def children_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Children of each of ``nodes``, flattened in order, and for each
        child the position of its parent in ``nodes``."""
        counts = self.n_children[nodes]
        owner = np.repeat(np.arange(nodes.size), counts)
        offsets = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return (self.first_child[nodes][owner] + offsets).astype(np.int64), owner

    def particles_of(self, i: int) -> slice:
        """Slice of the Morton-sorted particle arrays owned by node ``i``."""
        return slice(int(self.start[i]), int(self.end[i]))

    def nodes_at_level(self, d: int) -> np.ndarray:
        lo, hi = self.level_ranges[d]
        return np.arange(lo, hi)

    def leaf_ids(self) -> np.ndarray:
        return np.nonzero(self.n_children == 0)[0]

    def validate(self) -> None:
        """Check structural invariants (used by the test-suite and for
        debugging user-supplied inputs); raises AssertionError."""
        assert self.start[0] == 0 and self.end[0] == self.n_particles
        inner = np.flatnonzero(self.n_children > 0)
        ch, at = self.children_of(inner)
        owner = inner[at]
        # every node but the root is the child of exactly one node
        assert np.array_equal(np.sort(ch), np.arange(1, self.n_nodes))
        assert np.all(self.parent[ch] == owner)
        assert np.all(self.level[ch] == self.level[owner] + 1)
        last = self.first_child[inner] + self.n_children[inner] - 1
        assert np.all(self.start[self.first_child[inner]] == self.start[inner])
        assert np.all(self.end[last] == self.end[inner])
        sib = owner[1:] == owner[:-1]
        assert np.all(self.end[ch[:-1]][sib] == self.start[ch[1:]][sib])
        # every particle in exactly one leaf
        leaves = self.leaf_ids()
        counts = (self.end[leaves] - self.start[leaves]).sum()
        assert counts == self.n_particles


def enclosing_radius(points, start, end, level_ranges, centers) -> np.ndarray:
    """Exact radius of each node's particles ``points[start:end]`` about
    its centre: one segmented max per level of ``level_ranges`` (every
    particle appears in one slice per level)."""
    radius = np.empty(start.size, dtype=np.float64)
    for lo, hi in level_ranges:
        cnt = end[lo:hi] - start[lo:hi]
        seg = np.cumsum(cnt) - cnt
        idx = np.arange(int(cnt.sum())) + np.repeat(start[lo:hi] - seg, cnt)
        d = np.take(points, idx, axis=0)
        d -= np.repeat(centers[lo:hi], cnt, axis=0)
        radius[lo:hi] = np.sqrt(np.maximum.reduceat(np.einsum("ij,ij->i", d, d), seg))
    return radius


def build_octree(
    points: np.ndarray,
    charges: np.ndarray,
    leaf_size: int = 16,
    expansion_center: str = "abs_com",
    max_depth: int = MAX_DEPTH,
) -> Octree:
    """Build an adaptive octree.

    Parameters
    ----------
    points:
        ``(n, 3)`` particle positions.
    charges:
        ``(n,)`` charges (or quadrature weights for BEM).
    leaf_size:
        Maximum particles per leaf.  The paper notes leaves of 32-64
        particles are common for cache performance; the treecode's
        near-field cost grows with ``leaf_size`` while the number of
        multipole evaluations shrinks.
    expansion_center:
        ``"abs_com"`` — |q|-weighted centroid (default, the paper's
        center of mass); ``"box"`` — geometric box center.
    max_depth:
        Hard depth cap (duplicates or near-duplicates stop splitting
        there, so leaves can exceed ``leaf_size`` in pathological data).

    Returns
    -------
    :class:`Octree`
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    charges = np.ascontiguousarray(charges, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    if charges.shape != (points.shape[0],):
        raise ValueError(
            f"charges must have shape ({points.shape[0]},), got {charges.shape}"
        )
    if points.shape[0] == 0:
        raise ValueError("cannot build a tree over zero particles")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or infinity")
    if not np.all(np.isfinite(charges)):
        raise ValueError("charges contain NaN or infinity")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    if expansion_center not in ("abs_com", "box"):
        raise ValueError(f"unknown expansion_center {expansion_center!r}")
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_DEPTH}]")

    # Cubic root box (slightly padded so boundary points quantize inside).
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    edge = float((hi - lo).max())
    if edge <= 0:
        edge = 1.0  # all points coincide
    pad = edge * 1e-9
    center0 = (lo + hi) / 2.0
    edge = edge * (1 + 2e-9) + 2 * pad
    domain_lo = center0 - edge / 2.0
    domain_hi = center0 + edge / 2.0

    keys = morton_key(points, domain_lo, domain_hi)
    perm = np.argsort(keys, kind="stable")
    keys = keys[perm]
    pts = points[perm]
    q = charges[perm]

    # --- level-synchronous construction ---------------------------------
    # per level: start, end, parent, centre, half size and key prefix of
    # its nodes; a split node's non-empty octants become the next level
    starts = [np.zeros(1, dtype=np.int64)]
    ends = [np.full(1, len(q), dtype=np.int64)]
    parents = [np.full(1, -1, dtype=np.int64)]
    centers, halves = [center0[None, :]], [np.array([edge / 2.0])]
    prefix = np.zeros(1, dtype=np.uint64)
    first_child, n_children = [], []
    level_ranges: list[tuple[int, int]] = [(0, 1)]
    octs = np.arange(8, dtype=np.uint64)
    depth = 0
    while True:
        lo_id, s, e = level_ranges[-1][0], starts[-1], ends[-1]
        fc = np.full(s.size, -1, dtype=np.int64)
        nch = np.zeros(s.size, dtype=np.int32)
        first_child.append(fc)
        n_children.append(nch)
        split = np.flatnonzero(e - s > leaf_size) if depth < max_depth else []
        if len(split) == 0:
            break
        # octant boundaries of every split node: one exact uint64 search
        # over all keys (a child's first key shares the node's prefix, so
        # the search never leaves the node's slice)
        width = np.uint64(3 * (MAX_DEPTH - depth - 1))
        kids = (prefix[split, None] << np.uint64(3)) | octs
        bounds = np.empty((split.size, 9), dtype=np.int64)
        bounds[:, 0], bounds[:, 8] = s[split], e[split]
        bounds[:, 1:8] = np.searchsorted(keys, kids[:, 1:] << width)
        full = bounds[:, 1:] > bounds[:, :-1]
        row, oct_ = np.nonzero(full)  # parent order, octants ascending
        nch[split] = full.sum(axis=1)
        hi_id = level_ranges[-1][1]
        fc[split] = hi_id + np.cumsum(nch[split]) - nch[split]
        h = halves[-1][split][row] / 2.0
        # octant bits 4, 2, 1 are the x, y, z halves: c ± h per axis
        sign = np.where((oct_[:, None] >> np.array([2, 1, 0])) & 1, 1.0, -1.0)
        starts.append(bounds[row, oct_])
        ends.append(bounds[row, oct_ + 1])
        parents.append(lo_id + split[row])
        centers.append(centers[-1][split][row] + sign * h[:, None])
        halves.append(h)
        prefix = kids[row, oct_]
        level_ranges.append((hi_id, hi_id + row.size))
        depth += 1

    start = np.concatenate(starts)
    end = np.concatenate(ends)
    center_geom = np.concatenate(centers)
    half_size = np.concatenate(halves)
    n_nodes = start.size
    level = np.repeat(
        np.arange(len(level_ranges), dtype=np.int32),
        [hi - lo for lo, hi in level_ranges],
    )

    # --- aggregates --------------------------------------------------------
    absq = np.abs(q)
    cs_abs = np.concatenate([[0.0], np.cumsum(absq)])
    cs_net = np.concatenate([[0.0], np.cumsum(q)])
    cs_wpos = np.concatenate(
        [np.zeros((1, 3)), np.cumsum(absq[:, None] * pts, axis=0)], axis=0
    )
    abs_charge = cs_abs[end] - cs_abs[start]
    net_charge = cs_net[end] - cs_net[start]
    if expansion_center == "abs_com":
        wsum = cs_wpos[end] - cs_wpos[start]
        safe = np.maximum(abs_charge, 1e-300)[:, None]
        center_exp = np.where(abs_charge[:, None] > 0, wsum / safe, center_geom)
    else:
        center_exp = center_geom.copy()

    radius = enclosing_radius(pts, start, end, level_ranges, center_exp)

    return Octree(
        points=pts,
        charges=q,
        perm=perm,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
        level=level,
        parent=np.concatenate(parents),
        first_child=np.concatenate(first_child),
        n_children=np.concatenate(n_children),
        start=start,
        end=end,
        center_geom=center_geom,
        half_size=half_size,
        center_exp=center_exp,
        radius=radius,
        abs_charge=abs_charge,
        net_charge=net_charge,
        leaf_size=leaf_size,
        expansion_center=expansion_center,
        level_ranges=level_ranges,
    )
