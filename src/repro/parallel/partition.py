"""Work partitioning for the parallel treecode.

The paper's parallel formulation: "particles are sorted in a
proximity-preserving order (a Peano-Hilbert ordering) and force
computation for sets of ``w`` particles are aggregated into a single
thread [work unit]".  This module produces those w-blocks and computes
their per-block cost profiles from the treecode's interaction lists —
the inputs to both the real executors and the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.treecode import Treecode
from ..multipole.harmonics import term_count
from ..tree.hilbert import hilbert_order

__all__ = [
    "make_blocks",
    "BlockProfile",
    "profile_blocks",
    "translation_cost",
]

def translation_cost(p) -> np.ndarray:
    """Per-translation flop model used by the plan compilers' balancers:
    ``(p+1)^4`` for the dense kernels.  Vectorized over ``p``."""
    return (np.asarray(p, dtype=np.float64) + 1.0) ** 4


def make_blocks(
    points: np.ndarray,
    w: int,
    ordering: str = "hilbert",
    seed: int = 0,
) -> list[np.ndarray]:
    """Split target indices into blocks of ``w`` spatially-close targets.

    Parameters
    ----------
    points:
        ``(n, 3)`` target positions.
    w:
        Aggregation factor (particles per work unit).
    ordering:
        ``"hilbert"`` (the paper's choice), ``"morton"``, ``"input"``
        (no reordering), or ``"random"`` — the latter three exist for
        the locality ablation.
    seed:
        Only used by ``"random"``.

    Returns
    -------
    List of index arrays, each of length ``w`` (last may be shorter).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    if ordering == "hilbert":
        order = hilbert_order(points)
    elif ordering == "morton":
        from ..tree.morton import morton_key

        lo, hi = points.min(axis=0), points.max(axis=0)
        hi = np.where(hi > lo, hi, lo + 1.0)
        order = np.argsort(morton_key(points, lo, hi), kind="stable")
    elif ordering == "input":
        order = np.arange(n)
    elif ordering == "random":
        order = np.random.default_rng(seed).permutation(n)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return [order[i : i + w] for i in range(0, n, w)]


@dataclass
class BlockProfile:
    """Per-block cost profile extracted from the interaction lists.

    ``compute``: multipole terms + near-field pairs evaluated by the
    block (the serial work it represents).  ``fetch``: multipole terms
    of *distinct* clusters the block touches — the data volume a
    processor must have locally (or fetch remotely) to run the block.
    The unique (block, cluster) pairs are retained so the machine model
    can compute the *per-processor* unique data volume under a given
    block assignment: spatially compact blocks assigned to the same
    processor share most of their cluster data, which is exactly why the
    paper's Peano-Hilbert ordering reduces communication.
    """

    blocks: list
    compute_terms: np.ndarray
    compute_pairs: np.ndarray
    fetch_terms: np.ndarray
    #: unique (block, cluster) pairs and the term count of each cluster
    pair_blocks: np.ndarray = None
    pair_nodes: np.ndarray = None
    pair_terms: np.ndarray = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def profile_blocks(
    tc: Treecode,
    blocks: list[np.ndarray],
    pair_degrees: np.ndarray | None = None,
) -> BlockProfile:
    """Measure each block's far-field terms, near-field pairs and the
    distinct-cluster fetch volume, from one traversal of the tree.

    Targets are the treecode's own source particles (the self-evaluation
    the paper times); block indices refer to the *original* particle
    ordering.

    ``pair_degrees`` (optional) supplies a per-interaction degree aligned
    with the traversal's far-pair emission order, as selected by a
    variable-order plan.  When given, both the compute terms and the
    fetch volume (term count of each distinct cluster at the *largest*
    degree any of the block's pairs requested of it) follow the actual
    bucketed degrees instead of the policy's per-node ``p_eval`` — so
    balanced work units reflect the true Σ terms cost.
    """
    tree = tc.tree
    n = tree.n_particles
    # Map original indices -> sorted (tree) positions.
    to_sorted = np.empty(n, dtype=np.int64)
    to_sorted[tree.perm] = np.arange(n)

    lists = tc.traverse(tree.points, self_targets=True)
    # block id per sorted target position
    block_of = np.empty(n, dtype=np.int64)
    for b, idx in enumerate(blocks):
        block_of[to_sorted[idx]] = b
    nb = len(blocks)

    if pair_degrees is None:
        pdeg = tc.p_eval[lists.far_nodes]
    else:
        pdeg = np.asarray(pair_degrees, dtype=np.int64)
        if pdeg.shape != lists.far_nodes.shape:
            raise ValueError(
                f"pair_degrees has shape {pdeg.shape}, expected one degree "
                f"per far pair {lists.far_nodes.shape}"
            )
    pair_terms = np.array(
        [term_count(int(p)) for p in pdeg], dtype=np.int64
    )
    pair_blocks = block_of[lists.far_targets]
    compute_terms = np.bincount(pair_blocks, weights=pair_terms, minlength=nb)

    compute_pairs = np.zeros(nb, dtype=np.float64)
    for leaf, tids in lists.near:
        s, e = int(tree.start[leaf]), int(tree.end[leaf])
        cnt = e - s
        np.add.at(compute_pairs, block_of[tids], cnt)
        # exclude self-pairs of targets living in this leaf
        own = tids[(tids >= s) & (tids < e)]
        np.add.at(compute_pairs, block_of[own], -1)

    # Fetch volume: distinct (block, node) pairs weighted by term count
    # (at the largest degree the block's pairs request of the node).
    if lists.far_nodes.size:
        key = pair_blocks * np.int64(tree.n_nodes) + lists.far_nodes
        uniq, inv = np.unique(key, return_inverse=True)
        ub = (uniq // tree.n_nodes).astype(np.int64)
        un = (uniq % tree.n_nodes).astype(np.int64)
        dmax = np.zeros(uniq.size, dtype=np.int64)
        np.maximum.at(dmax, inv, pdeg)
        uterms = np.array([term_count(int(p)) for p in dmax], dtype=np.int64)
        fetch_terms = np.bincount(ub, weights=uterms, minlength=nb)
    else:
        ub = np.empty(0, dtype=np.int64)
        un = np.empty(0, dtype=np.int64)
        uterms = np.empty(0, dtype=np.int64)
        fetch_terms = np.zeros(nb, dtype=np.float64)

    return BlockProfile(
        blocks=list(blocks),
        compute_terms=compute_terms,
        compute_pairs=compute_pairs,
        fetch_terms=fetch_terms,
        pair_blocks=ub,
        pair_nodes=un,
        pair_terms=uterms,
    )
