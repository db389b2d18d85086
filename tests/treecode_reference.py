"""Per-pair reference evaluator for the treecode (test oracle).

The library evaluates every treecode through a compiled plan
(:mod:`repro.perf.plan`); this module recomputes the same interaction
lists the slow, obvious way, sharing none of the plan's machinery:

* a direct :func:`~repro.multipole.expansion.p2m` per accepted source
  node, at the node's degree;
* :func:`~repro.multipole.expansion.m2p` (and
  :func:`~repro.multipole.gradient.m2p_grad`) for that node's far pairs;
* :func:`~repro.direct.pairwise_potential` (and a dense gradient) per
  near-field leaf;
* :func:`~repro.core.bounds.theorem1_bound` per far pair.

Interaction counts follow the paper's accounting, so they must equal a
plan's frozen statistics exactly.
"""

import numpy as np

from repro.core.bounds import theorem1_bound
from repro.core.treecode import TreecodeResult, TreecodeStats
from repro.direct import pairwise_potential
from repro.multipole.expansion import m2p, p2m
from repro.multipole.gradient import m2p_grad
from repro.multipole.harmonics import term_count


def _near_gradient(tgt, src, q, exclude, softening):
    d = tgt[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsi,tsi->ts", d, d) + softening * softening
    with np.errstate(divide="ignore"):
        w = q / (r2 * np.sqrt(r2))
    w[r2 == 0.0] = 0.0
    if exclude is not None:
        rows = np.nonzero(exclude >= 0)[0]
        w[rows, exclude[rows]] = 0.0
    return -np.einsum("ts,tsi->ti", w, d)


def reference_evaluate(tc, targets=None, compute="potential", accumulate_bounds=False):
    """``tc.evaluate(targets, compute, accumulate_bounds)`` recomputed
    per pair from ``tc``'s interaction lists and current charges."""
    tree = tc.tree
    self_targets = targets is None
    tgt = tree.points if self_targets else np.asarray(targets, dtype=np.float64)
    lists = tc.traverse(tgt, self_targets)
    nt = tgt.shape[0]
    phi = np.zeros(nt)
    grad = np.zeros((nt, 3)) if compute == "both" else None
    bound = np.zeros(nt) if accumulate_bounds else None
    stats = TreecodeStats(n_targets=nt)

    fn, ft = lists.far_nodes, lists.far_targets
    for node in np.unique(fn):
        tids = ft[fn == node]  # a target accepts a node at most once
        p = int(tc.p_eval[node])
        s, e = int(tree.start[node]), int(tree.end[node])
        C = p2m(tree.points[s:e] - tree.center_exp[node], tree.charges[s:e], p)
        rel = tgt[tids] - tree.center_exp[node]
        phi[tids] += m2p(C, rel, p)
        if grad is not None:
            grad[tids] += m2p_grad(C, rel, p)
        lvl = int(tree.level[node])
        if bound is not None:
            b = theorem1_bound(
                tree.abs_charge[node], tree.radius[node], np.linalg.norm(rel, axis=1), p
            )
            bound[tids] += b
            stats.bound_by_level[lvl] = stats.bound_by_level.get(lvl, 0.0) + float(
                b.sum()
            )
        k = int(tids.size)
        stats.n_pc_interactions += k
        stats.n_terms += k * term_count(p)
        stats.interactions_by_degree[p] = stats.interactions_by_degree.get(p, 0) + k
        stats.interactions_by_level[lvl] = stats.interactions_by_level.get(lvl, 0) + k

    for leaf, tids in lists.near:
        s, e = int(tree.start[leaf]), int(tree.end[leaf])
        if e == s:
            continue
        src, qs = tree.points[s:e], tree.charges[s:e]
        excl = np.where((tids >= s) & (tids < e), tids - s, -1) if self_targets else None
        phi[tids] += pairwise_potential(
            tgt[tids], src, qs, exclude=excl, softening=tc.softening
        )
        if grad is not None:
            grad[tids] += _near_gradient(tgt[tids], src, qs, excl, tc.softening)
        n_excl = int(np.count_nonzero(excl >= 0)) if excl is not None else 0
        stats.n_pp_pairs += tids.size * (e - s) - n_excl

    if self_targets:  # back to the caller's particle order
        inv = tree.perm
        phi = _unsort(phi, inv)
        grad = None if grad is None else _unsort(grad, inv)
        bound = None if bound is None else _unsort(bound, inv)
    return TreecodeResult(potential=phi, gradient=grad, error_bound=bound, stats=stats)


def _unsort(a, perm):
    out = np.empty_like(a)
    out[perm] = a
    return out


def assert_matches_reference(res, ref, stats=True):
    """The tolerances a plan meets against :func:`reference_evaluate`:
    <= 1e-12 absolute on potentials, rtol 1e-9 on gradients, bounds and
    ``bound_by_level``, and equal interaction counts."""
    assert np.max(np.abs(res.potential - ref.potential)) <= 1e-12
    if ref.gradient is not None:
        np.testing.assert_allclose(res.gradient, ref.gradient, rtol=1e-9, atol=1e-12)
    if ref.error_bound is not None:
        np.testing.assert_allclose(
            res.error_bound, ref.error_bound, rtol=1e-9, atol=1e-12
        )
        assert set(res.stats.bound_by_level) == set(ref.stats.bound_by_level)
        for L, v in ref.stats.bound_by_level.items():
            np.testing.assert_allclose(res.stats.bound_by_level[L], v, rtol=1e-9)
    if stats:
        a, b = res.stats, ref.stats
        assert a.n_targets == b.n_targets
        assert a.n_pc_interactions == b.n_pc_interactions
        assert a.n_pp_pairs == b.n_pp_pairs
        assert a.n_terms == b.n_terms
        assert a.interactions_by_degree == b.interactions_by_degree
        assert a.interactions_by_level == b.interactions_by_level
