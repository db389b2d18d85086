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

It also keeps the set-up's per-node originals as oracles for the
level-synchronous library versions: :func:`reference_octree` splits
one node at a time and :func:`reference_traverse` walks a stack of
``(node, targets)`` entries; both must be bitwise equal to
:func:`~repro.tree.octree.build_octree` and
:meth:`~repro.core.treecode.Treecode.traverse`.
"""

import numpy as np

from repro.core.bounds import theorem1_bound
from repro.core.treecode import TreecodeResult, TreecodeStats
from repro.direct import pairwise_potential
from repro.multipole.expansion import m2p, p2m
from repro.multipole.gradient import m2p_grad
from repro.multipole.harmonics import term_count
from repro.tree.morton import MAX_DEPTH, key_range_of_node, morton_key
from repro.tree.octree import Octree


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


def reference_octree(
    points, charges, leaf_size=16, expansion_center="abs_com", max_depth=MAX_DEPTH
):
    """:func:`~repro.tree.octree.build_octree` one node at a time: seven
    exact ``uint64`` ``searchsorted`` calls per split node and one radius
    reduction per node (inputs assumed valid)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    charges = np.ascontiguousarray(charges, dtype=np.float64)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    edge = float((hi - lo).max())
    if edge <= 0:
        edge = 1.0
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

    level_l, parent_l, first_child_l, n_children_l = [0], [-1], [-1], [0]
    start_l, end_l = [0], [len(q)]
    center_l, half_l, prefix_l = [center0], [edge / 2.0], [0]
    level_ranges = [(0, 1)]
    frontier = [0]
    depth = 0
    while frontier:
        next_frontier = []
        next_lo = len(level_l)
        for node in frontier:
            s, e = start_l[node], end_l[node]
            if e - s <= leaf_size or depth >= max_depth or keys[s] == keys[e - 1]:
                continue
            prefix = prefix_l[node]
            bounds = [s]
            for oct_ in range(1, 8):
                k_lo, _ = key_range_of_node(prefix * 8 + oct_, depth + 1)
                bounds.append(int(np.searchsorted(keys[s:e], np.uint64(k_lo))) + s)
            bounds.append(e)
            fc = -1
            nch = 0
            c = np.asarray(center_l[node])
            h = half_l[node] / 2.0
            for oct_ in range(8):
                cs, ce = bounds[oct_], bounds[oct_ + 1]
                if ce <= cs:
                    continue
                child = len(level_l)
                if fc < 0:
                    fc = child
                nch += 1
                dx = h if (oct_ & 4) else -h
                dy = h if (oct_ & 2) else -h
                dz = h if (oct_ & 1) else -h
                level_l.append(depth + 1)
                parent_l.append(node)
                first_child_l.append(-1)
                n_children_l.append(0)
                start_l.append(cs)
                end_l.append(ce)
                center_l.append(c + np.array([dx, dy, dz]))
                half_l.append(h)
                prefix_l.append(prefix * 8 + oct_)
                next_frontier.append(child)
            first_child_l[node] = fc
            n_children_l[node] = nch
        if next_frontier:
            level_ranges.append((next_lo, len(level_l)))
        frontier = next_frontier
        depth += 1

    n_nodes = len(level_l)
    start = np.asarray(start_l, dtype=np.int64)
    end = np.asarray(end_l, dtype=np.int64)
    center_geom = np.asarray(center_l, dtype=np.float64)
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
    radius = np.empty(n_nodes, dtype=np.float64)
    for i in range(n_nodes):
        d = pts[start[i] : end[i]] - center_exp[i]
        radius[i] = np.sqrt(np.einsum("ij,ij->i", d, d).max())

    return Octree(
        points=pts,
        charges=q,
        perm=perm,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
        level=np.asarray(level_l, dtype=np.int32),
        parent=np.asarray(parent_l, dtype=np.int64),
        first_child=np.asarray(first_child_l, dtype=np.int64),
        n_children=np.asarray(n_children_l, dtype=np.int32),
        start=start,
        end=end,
        center_geom=center_geom,
        half_size=np.asarray(half_l, dtype=np.float64),
        center_exp=center_exp,
        radius=radius,
        abs_charge=abs_charge,
        net_charge=net_charge,
        leaf_size=leaf_size,
        expansion_center=expansion_center,
        level_ranges=level_ranges,
    )


def reference_traverse(tree, targets, alpha):
    """:meth:`~repro.core.treecode.Treecode.traverse` as a stack of
    ``(node, target array)`` entries, one MAC test per popped node:
    ``(far_nodes, far_targets, near)``."""
    alpha2 = alpha * alpha
    far_nodes, far_tids, near = [], [], []
    stack = [(0, np.arange(targets.shape[0]))]
    while stack:
        node, idx = stack.pop()
        delta = targets[idx] - tree.center_exp[node]
        d2 = np.einsum("ij,ij->i", delta, delta)
        rad = tree.radius[node]
        if rad == 0.0:
            acc = d2 > 0.0
        else:
            acc = (rad * rad) <= alpha2 * d2
        acc_idx = idx[acc]
        if acc_idx.size:
            far_nodes.append(np.full(acc_idx.size, node, dtype=np.int64))
            far_tids.append(acc_idx)
        rest = idx[~acc]
        if rest.size == 0:
            continue
        if tree.n_children[node] == 0:
            near.append((node, rest))
        else:
            for c in tree.children(node)[::-1]:
                stack.append((int(c), rest))
    fn = np.concatenate(far_nodes) if far_nodes else np.empty(0, dtype=np.int64)
    ft = np.concatenate(far_tids) if far_tids else np.empty(0, dtype=np.int64)
    return fn, ft, near
