r"""Dual-tree traversal: box-box interaction pairs under a two-sided MAC.

The single-tree traversal of :class:`~repro.core.treecode.Treecode`
tests each *target point* against cluster spheres — the classic
Barnes-Hut acceptance ``a <= alpha r`` of the paper.  For
cluster-cluster (M2L) evaluation both ends of an interaction are
extended bodies, so the acceptance criterion generalizes to the
*box MAC*

.. math::

    \frac{a_{\mathrm{src}} + a_{\mathrm{tgt}}}{r} \le \alpha,

where ``a_src``/``a_tgt`` are the exact enclosing radii about the two
expansion centers and ``r`` the distance between the centers.  This is
the well-separated-pair criterion of Engblom (*On well-separated sets
and fast multipole methods*, arXiv:1006.2269) specialized to spheres;
for ``alpha < 1`` it guarantees ``r > a_src + a_tgt``, so the combined
M2L + L2L + L2P pipeline truncated at degree ``p`` obeys the Theorem-1
style bound

.. math::

    |\Phi - \Phi_p| \le
    \frac{A}{r - a_{\mathrm{src}} - a_{\mathrm{tgt}}}
    \left(\frac{a_{\mathrm{src}} + a_{\mathrm{tgt}}}{r}\right)^{p+1}

per accepted pair (``A`` the absolute source charge), which reduces to
the paper's Theorem-2 form ``A alpha^{p+1} / (r (1 - alpha))``.

The walk starts from the (root, root) pair and splits one side of every
pair the separation criterion rejects; a rejected pair of two leaves
becomes a near (direct) leaf pair.  The criterion is a small object
(in the manner of a Barnes-Hut "splitter") that tests a whole frontier
at once and says which side of each rejected pair to split:

* :class:`BoxMAC` — the two-sided α-MAC above, splitting the
  larger-radius side;
* :class:`VList` — the FMM's rule (Engblom's other separation
  criterion): a pair is accepted only when both boxes are at the same
  level and not adjacent, and the coarser side is split.  On an octree
  of uniform depth it emits exactly the FMM's interaction lists: the
  V-list pairs of every level and the 27-neighbour leaf pairs.

The refinement loop is vectorized: each round tests every frontier pair
at once and expands the split ones with one ``repeat``/``arange`` pass,
so the traversal costs a few milliseconds per ten thousand boxes.
Emission order is deterministic (frontier order), which the compiled
cluster plan relies on for reproducible accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octree import Octree

__all__ = ["BoxPairs", "BoxMAC", "VList", "dual_traverse"]


@dataclass
class BoxPairs:
    """Interaction pairs produced by :func:`dual_traverse`.

    ``far_src[i]``/``far_tgt[i]`` is an accepted source/target box pair
    (M2L candidates); ``near_src``/``near_tgt`` are leaf pairs that
    must interact directly (including each leaf's self pair).
    ``far_r[i]`` is the center distance of far pair ``i`` — the MAC
    test computes it anyway, and carrying it out lets consumers (the
    variable-order plan compiler's per-pair Theorem-1 bound factors)
    avoid a second distance pass over every pair.
    """

    far_src: np.ndarray
    far_tgt: np.ndarray
    near_src: np.ndarray
    near_tgt: np.ndarray
    far_r: np.ndarray | None = None

    @property
    def n_far(self) -> int:
        return int(self.far_src.size)

    @property
    def n_near(self) -> int:
        return int(self.near_src.size)


def _center_distance(tree: Octree, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    d = tree.center_exp[src] - tree.center_exp[tgt]
    return np.sqrt(np.einsum("ij,ij->i", d, d))


@dataclass(frozen=True)
class BoxMAC:
    """The two-sided α-MAC: accept ``(src, tgt)`` iff
    ``a_src + a_tgt <= alpha * |c_src - c_tgt|`` (strictly separated);
    split the larger-radius side of a rejected pair."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(
                f"alpha must be in (0, 1) for the box MAC, got {self.alpha}"
            )

    def accept(self, tree: Octree, src: np.ndarray, tgt: np.ndarray):
        """Acceptance mask of the frontier, plus the centre distances."""
        r = _center_distance(tree, src, tgt)
        return (r > 0.0) & (tree.radius[src] + tree.radius[tgt] <= self.alpha * r), r

    def split_source(self, tree: Octree, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Whether to split the source side of each rejected pair."""
        return tree.radius[src] >= tree.radius[tgt]


@dataclass(frozen=True)
class VList:
    """The FMM's criterion: accept ``(src, tgt)`` iff both boxes are at
    the same level and not adjacent; split the coarser side of a
    rejected pair (the source on a tie).

    Adjacency reads the geometric boxes: same-level box centres are
    ``2h`` apart per axis when adjacent and at least ``4h`` otherwise,
    so the test compares against ``3h``.  Accepted pairs satisfy
    ``a_src + a_tgt <= 2√3 h < 4h <= r``, so the dual Theorem-1 bound
    holds for every one."""

    def accept(self, tree: Octree, src: np.ndarray, tgt: np.ndarray):
        """Acceptance mask of the frontier, plus the centre distances."""
        gap = np.abs(tree.center_geom[src] - tree.center_geom[tgt]).max(axis=1)
        acc = (tree.level[src] == tree.level[tgt]) & (gap > 3.0 * tree.half_size[src])
        return acc, _center_distance(tree, src, tgt)

    def split_source(self, tree: Octree, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Whether to split the source side of each rejected pair."""
        return tree.level[src] <= tree.level[tgt]


def dual_traverse(tree: Octree, criterion) -> BoxPairs:
    """Decompose all pairwise interactions into far pairs the
    ``criterion`` accepts (a :class:`BoxMAC` or :class:`VList`; a bare
    number is read as ``BoxMAC(alpha)``) plus near leaf pairs.

    Every (source particle, target particle) pair is covered by exactly
    one emitted pair — the partition property that makes the
    cluster-cluster plan equal the direct sum up to the truncation
    error of the accepted pairs.
    """
    if not hasattr(criterion, "accept"):
        criterion = BoxMAC(float(criterion))
    far_s: list[np.ndarray] = []
    far_t: list[np.ndarray] = []
    far_r: list[np.ndarray] = []
    near_s: list[np.ndarray] = []
    near_t: list[np.ndarray] = []
    src = np.zeros(1, dtype=np.int64)
    tgt = np.zeros(1, dtype=np.int64)
    while src.size:
        acc, r = criterion.accept(tree, src, tgt)
        if acc.any():
            far_s.append(src[acc])
            far_t.append(tgt[acc])
            far_r.append(r[acc])
            src, tgt = src[~acc], tgt[~acc]
        if not src.size:
            break
        s_leaf = tree.n_children[src] == 0
        t_leaf = tree.n_children[tgt] == 0
        both = s_leaf & t_leaf
        if both.any():
            near_s.append(src[both])
            near_t.append(tgt[both])
            src, tgt = src[~both], tgt[~both]
            s_leaf, t_leaf = s_leaf[~both], t_leaf[~both]
        if not src.size:
            break
        # the criterion's side, unless that side is a leaf
        split_src = ~s_leaf & (t_leaf | criterion.split_source(tree, src, tgt))
        ns_list = []
        nt_list = []
        if split_src.any():
            children, owner = tree.children_of(src[split_src])
            ns_list.append(children)
            nt_list.append(tgt[split_src][owner])
        split_tgt = ~split_src
        if split_tgt.any():
            children, owner = tree.children_of(tgt[split_tgt])
            ns_list.append(src[split_tgt][owner])
            nt_list.append(children)
        src = np.concatenate(ns_list)
        tgt = np.concatenate(nt_list)

    def _cat(parts: list[np.ndarray]) -> np.ndarray:
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    return BoxPairs(
        far_src=_cat(far_s),
        far_tgt=_cat(far_t),
        near_src=_cat(near_s),
        near_tgt=_cat(near_t),
        far_r=(
            np.concatenate(far_r) if far_r else np.empty(0, dtype=np.float64)
        ),
    )
