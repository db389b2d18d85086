"""Ablation experiments A1-A4 and the Theorem-5 cost-ratio study (E6).

These probe the design choices the paper's analysis depends on:

* **E6 / cost ratio** — measured terms(new)/terms(orig) vs the
  Theorem-5 prediction, across n.
* **A1 / α sweep** — error and cost of both methods as the MAC
  parameter varies (the degree schedule depends on α through the bound).
* **A2 / leaf size** — near-field vs far-field cost trade-off (the
  paper: leaves of 32-64 particles are used for cache performance).
* **A3 / ordering** — load balance of w-blocks under Hilbert vs Morton
  vs random ordering (why the parallel formulation sorts by
  Peano-Hilbert).
* **A4 / FMM extension** — Theorem-3 degrees inside the FMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import relative_l2_error
from ..core.bounds import theorem5_cost_ratio
from ..core.degree import AdaptiveChargeDegree, FixedDegree
from ..core.treecode import Treecode
from ..data.distributions import make_distribution, unit_charges
from ..direct import direct_potential
from ..fmm import UniformFMM, level_degrees
from ..parallel import MachineModel, make_blocks, profile_blocks, simulate
from ..robust.checkpoint import Checkpoint, cached_step
from ..tree.octree import build_octree

__all__ = [
    "run_cost_ratio",
    "run_alpha_sweep",
    "run_leaf_sweep",
    "run_ordering_study",
    "run_fmm_extension",
]


def run_cost_ratio(
    sizes=None,
    p0: int = 4,
    alpha: float = 0.4,
    seed: int = 0,
    checkpoint: Checkpoint | None = None,
):
    """E6: measured vs predicted (Theorem 5) term-count ratio."""
    sizes = [1000, 4000, 16000] if sizes is None else sizes
    rows = []
    for n in sizes:

        def compute(n=n) -> list:
            pts = make_distribution("uniform", n, seed=seed + n)
            q = unit_charges(n, seed=seed + n + 1, signed=True)
            terms = {}
            height = None
            # the octree and the traversal depend on neither the degree
            # policy nor the charges, so both methods share them
            tree = build_octree(pts, q)
            lists = None
            for name, policy in (
                ("orig", FixedDegree(p0)),
                ("new", AdaptiveChargeDegree(p0=p0, alpha=alpha)),
            ):
                tc = Treecode(pts, q, degree_policy=policy, alpha=alpha, tree=tree)
                if lists is None:
                    lists = tc.traverse(tree.points, self_targets=True)
                res = tc.compile_plan(lists=lists, memory_budget=0).execute(q)
                terms[name] = res.stats.n_terms
                height = tc.height
            measured = terms["new"] / terms["orig"]
            predicted = theorem5_cost_ratio(p0, alpha, height)
            return [n, height, terms["orig"], terms["new"], measured, predicted]

        rows.append(cached_step(checkpoint, f"n:{n}", compute))
    headers = ["n", "height", "terms(orig)", "terms(new)", "ratio(measured)", "ratio(Thm5)"]
    return headers, rows


def run_alpha_sweep(
    alphas=None,
    n: int = 6000,
    p0: int = 4,
    seed: int = 0,
    checkpoint: Checkpoint | None = None,
):
    """A1: error/terms vs MAC parameter for both methods."""
    alphas = [0.3, 0.4, 0.5, 0.6, 0.7] if alphas is None else alphas
    pts = make_distribution("uniform", n, seed=seed + 1)
    q = unit_charges(n, seed=seed + 2, signed=True)
    ref = direct_potential(pts, q)
    # one octree serves every sweep point (it does not depend on alpha
    # or the degree policy); each alpha shares one traversal between the
    # two methods (the MAC reads only tree geometry and alpha)
    tree = build_octree(pts, q)
    rows = []
    for a in alphas:

        def compute(a=a) -> list:
            row = [a]
            lists = None
            for policy in (FixedDegree(p0), AdaptiveChargeDegree(p0=p0, alpha=a)):
                tc = Treecode(pts, q, degree_policy=policy, alpha=a, tree=tree)
                if lists is None:
                    lists = tc.traverse(tree.points, self_targets=True)
                res = tc.compile_plan(lists=lists, memory_budget=0).execute(q)
                row += [relative_l2_error(res.potential, ref), res.stats.n_terms]
            return row

        rows.append(cached_step(checkpoint, f"alpha:{a}", compute))
    headers = ["alpha", "err(orig)", "terms(orig)", "err(new)", "terms(new)"]
    return headers, rows


def run_leaf_sweep(
    leaf_sizes=None, n: int = 6000, p0: int = 4, alpha: float = 0.4, seed: int = 0
):
    """A2: far/near cost split vs leaf capacity."""
    leaf_sizes = [4, 8, 16, 32, 64] if leaf_sizes is None else leaf_sizes
    pts = make_distribution("uniform", n, seed=seed + 1)
    q = unit_charges(n, seed=seed + 2, signed=True)
    rows = []
    for m in leaf_sizes:
        tc = Treecode(pts, q, degree_policy=FixedDegree(p0), alpha=alpha, leaf_size=m)
        res = tc.evaluate()
        s = res.stats
        total = s.n_terms + s.n_pp_pairs
        rows.append([m, tc.height, s.n_terms, s.n_pp_pairs, s.n_pp_pairs / total])
    headers = ["leaf", "height", "far terms", "near pairs", "near fraction"]
    return headers, rows


def run_ordering_study(
    n: int = 8000, w: int = 64, n_procs: int = 32, alpha: float = 0.4, seed: int = 0
):
    """A3: locality of w-blocks under different orderings.

    The paper sorts particles into Peano-Hilbert order before
    aggregating; the payoff is *data locality* — each processor's blocks
    touch a small, shared set of clusters (cache/communication volume),
    while scattered orderings make every processor touch most of the
    tree.  Reported per ordering: the summed per-block distinct-cluster
    volume, the per-processor unique data volume under a contiguous
    static assignment, and the modeled speedup.
    """
    pts = make_distribution("uniform", n, seed=seed + 1)
    q = unit_charges(n, seed=seed + 2, signed=True)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=alpha)
    rows = []
    for ordering in ("hilbert", "morton", "input", "random"):
        blocks = make_blocks(pts, w, ordering=ordering)
        prof = profile_blocks(tc, blocks)
        sim = simulate(prof, MachineModel(n_procs=n_procs), strategy="contiguous")
        # per-processor unique cluster-data volume under the assignment
        assign = sim.assignment
        proc_of_pair = assign[prof.pair_blocks]
        stride = np.int64(prof.pair_nodes.max()) + 1
        key = proc_of_pair * stride + prof.pair_nodes
        _, first = np.unique(key, return_index=True)
        per_proc_vol = float(prof.pair_terms[first].sum()) / n_procs
        rows.append(
            [
                ordering,
                float(prof.fetch_terms.sum()),
                per_proc_vol,
                sim.speedup,
                sim.load_imbalance,
            ]
        )
    headers = ["ordering", "block fetch vol", "data/proc", "speedup", "imbalance"]
    return headers, rows


def run_fmm_extension(n: int = 4000, level: int = 3, p0: int = 4, seed: int = 0):
    """A4: fixed-degree FMM vs Theorem-3 per-level schedule."""
    pts = make_distribution("uniform", n, seed=seed + 1)
    q = unit_charges(n, seed=seed + 2, signed=True)
    ref = direct_potential(pts, q)
    rows = []
    for name, degs in (
        ("fixed", p0),
        ("adaptive(c=1)", level_degrees(p0, level + 1, c=1.0)),
        ("adaptive(c=2)", level_degrees(p0, level + 1, c=2.0)),
    ):
        fmm = UniformFMM(pts, q, level=level, degrees=degs)
        phi = fmm.evaluate()
        rows.append(
            [
                name,
                str(degs),
                relative_l2_error(phi, ref),
                fmm.stats.n_terms_m2l,
            ]
        )
    headers = ["schedule", "degrees(root..leaf)", "err", "M2L terms"]
    return headers, rows
