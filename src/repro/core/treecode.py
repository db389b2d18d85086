"""Barnes-Hut treecode with pluggable multipole-degree selection.

This is the paper's experimental vehicle: a Barnes-Hut evaluator over an
adaptive octree, using spherical-harmonic multipole expansions and the
α multipole acceptance criterion, with the degree of each accepted
particle-cluster interaction chosen by a
:class:`~repro.core.degree.DegreePolicy` — :class:`FixedDegree` gives
the *original* method, :class:`AdaptiveChargeDegree` the *improved*
method of Theorem 3.

Evaluation is organized in two phases:

1. **Traversal** — a walk producing explicit interaction lists in
   depth-first preorder: far (cluster, target) pairs accepted by the
   MAC and near (leaf, target-block) pairs.  The walk moves a frontier
   of (node, target) pairs one tree level per step, so its cost is a
   few NumPy calls per tree level and block of targets.
2. **Evaluation** — the lists are compiled into a target-major
   :class:`~repro.perf.plan.CompiledPlan` and executed: P2M products
   form the expansions, far pairs are grouped by degree and evaluated
   in large vectorized chunks, near pairs are dense kernel blocks.
   :meth:`Treecode.evaluate` compiles the plan fully spilled (nothing
   is frozen, every chunk is evaluated from geometry); repeated callers
   keep a plan from :meth:`Treecode.compile_plan` instead.

The two-phase structure also yields, for free, the paper's
instrumentation ("number of multipole terms evaluated", interactions
per level) and the per-target accumulation of Theorem-1 error bounds.

The multipole acceptance criterion
----------------------------------
A cluster with enclosing-sphere radius ``a`` (about its expansion
center) is accepted for a target at distance ``r`` iff ``a <= α r``
with ``α < 1``; Theorem 1 then bounds the interaction error by
``A α^(p+1) / (r (1-α))`` (Theorem 2).  We use the *exact* enclosing
radius rather than the box half-diagonal, which tightens both the MAC
and the bound without changing the theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.guards import check_finite
from ..tree.octree import Octree, build_octree
from .degree import AdaptiveChargeDegree, DegreePolicy, FixedDegree

__all__ = [
    "Treecode",
    "TreecodeResult",
    "TreecodeStats",
    "InteractionLists",
    "record_eval_metrics",
]

@dataclass
class TreecodeStats:
    """Cost accounting matching the paper's serial-complexity metric."""

    n_targets: int = 0
    #: particle-cluster interactions accepted by the MAC
    n_pc_interactions: int = 0
    #: particle-particle near-field pairs evaluated
    n_pp_pairs: int = 0
    #: total multipole terms evaluated: sum over interactions of (p+1)^2
    n_terms: int = 0
    #: interactions keyed by evaluation degree
    interactions_by_degree: dict = field(default_factory=dict)
    #: interactions keyed by tree level of the accepted cluster
    interactions_by_level: dict = field(default_factory=dict)
    #: accumulated Theorem-1 bound keyed by tree level (populated only
    #: when the evaluation accumulates bounds)
    bound_by_level: dict = field(default_factory=dict)
    #: seconds per layer of one serial plan execute: ``coefficients``
    #: (P2M), ``m2l``/``l2l``/``l2p`` (cluster far field), ``near``
    times: dict = field(default_factory=dict)
    build_time: float = 0.0
    upward_time: float = 0.0
    traverse_time: float = 0.0
    eval_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.build_time + self.upward_time + self.traverse_time + self.eval_time

    def merge(self, other: "TreecodeStats") -> None:
        """Accumulate another evaluation's counters into this one."""
        self.n_targets += other.n_targets
        self.n_pc_interactions += other.n_pc_interactions
        self.n_pp_pairs += other.n_pp_pairs
        self.n_terms += other.n_terms
        for k, v in other.interactions_by_degree.items():
            self.interactions_by_degree[k] = self.interactions_by_degree.get(k, 0) + v
        for k, v in other.interactions_by_level.items():
            self.interactions_by_level[k] = self.interactions_by_level.get(k, 0) + v
        for k, v in other.bound_by_level.items():
            self.bound_by_level[k] = self.bound_by_level.get(k, 0.0) + v
        for k, v in other.times.items():
            self.times[k] = self.times.get(k, 0.0) + v
        self.build_time += other.build_time
        self.upward_time += other.upward_time
        self.traverse_time += other.traverse_time
        self.eval_time += other.eval_time


def record_eval_metrics(stats: "TreecodeStats") -> None:
    """Publish one evaluation's counters into the process metrics
    registry (call sites gate on ``repro.obs.is_enabled()``)."""
    m = REGISTRY
    m.counter(
        "pc_interactions", "particle-cluster interactions accepted by the MAC"
    ).inc(stats.n_pc_interactions)
    m.counter("pp_pairs", "near-field particle-particle pairs evaluated").inc(
        stats.n_pp_pairs
    )
    m.counter(
        "terms_evaluated", "multipole terms evaluated (the paper's cost metric)"
    ).inc(stats.n_terms)
    if stats.interactions_by_degree:
        by_deg = m.counter(
            "pc_interactions_by_degree",
            "accepted interactions keyed by evaluation degree",
            labelnames=("degree",),
        )
        for p, c in stats.interactions_by_degree.items():
            by_deg.labels(degree=p).inc(c)
    if stats.interactions_by_level:
        by_lvl = m.counter(
            "pc_interactions_by_level",
            "accepted interactions keyed by cluster tree level",
            labelnames=("level",),
        )
        for lvl, c in stats.interactions_by_level.items():
            by_lvl.labels(level=lvl).inc(c)
    if stats.bound_by_level:
        bnd = m.counter(
            "theorem1_bound_by_level",
            "accumulated Theorem-1 error bound keyed by cluster tree level",
            labelnames=("level",),
        )
        for lvl, b in stats.bound_by_level.items():
            bnd.labels(level=lvl).inc(b)


@dataclass
class TreecodeResult:
    """Output of one treecode evaluation."""

    potential: np.ndarray
    gradient: np.ndarray | None
    error_bound: np.ndarray | None
    stats: TreecodeStats


@dataclass
class InteractionLists:
    """Explicit interaction lists produced by the traversal.

    ``far_nodes[i]``/``far_targets[i]`` is an accepted (cluster, target)
    pair, in deterministic preorder; ``near`` is a list of
    ``(leaf_id, target_indices)`` blocks.
    """

    far_nodes: np.ndarray
    far_targets: np.ndarray
    near: list


#: Targets walked down the tree together by :meth:`Treecode.traverse`;
#: bounds its per-level frontier of ``(node, target)`` pairs.
_TARGET_BLOCK = 2048


def _heads(node: np.ndarray) -> np.ndarray:
    """Start of every run of equal entries of a sorted node array."""
    return np.flatnonzero(np.append(True, node[1:] != node[:-1]))


def _descend(tree: Octree, node: np.ndarray, tid: np.ndarray):
    """The frontier one level down: every ``(node, target)`` pair,
    sorted by node then target, becomes one pair per child of the node,
    again sorted by (child, target)."""
    if node.size == 0:
        return node, tid
    head = _heads(node)
    r = np.diff(np.append(head, node.size))  # targets per parent
    # one segment per (parent, child): the parent's targets, in order
    child, seg = tree.children_of(node[head])
    rs = r[seg]
    shift = head[seg] - (np.cumsum(rs) - rs)
    return np.repeat(child, rs), tid[np.arange(int(rs.sum())) + np.repeat(shift, rs)]


class _Runs:
    """Targets emitted per node by :meth:`Treecode.traverse`, in chunks
    of node runs (nodes ascending, targets ascending within a node),
    placed at the nodes' preorder offsets once every chunk is in."""

    def __init__(self, n_nodes: int, dtype) -> None:
        self.count = np.zeros(n_nodes, dtype=np.int64)
        self.dtype = dtype
        self.chunks: list = []

    def add(self, node: np.ndarray, tid: np.ndarray) -> None:
        if node.size == 0:
            return
        head = _heads(node)
        nodes = node[head]
        self.count[nodes] += np.diff(np.append(head, node.size))
        self.chunks.append((nodes, head, tid.astype(self.dtype)))

    def place(self, order: np.ndarray):
        """``(targets, counts)``: every node's targets concatenated in
        the node ``order``, chunks in emission order within a node, and
        the per-node target counts (node-indexed)."""
        cnt = self.count
        fill = np.empty_like(cnt)
        fill[order] = np.cumsum(cnt[order]) - cnt[order]
        out = np.empty(int(cnt.sum()), dtype=np.int64)
        while self.chunks:
            nodes, head, tid = self.chunks.pop(0)
            lens = np.diff(np.append(head, tid.size))
            out[np.repeat(fill[nodes] - head, lens) + np.arange(tid.size)] = tid
            fill[nodes] += lens
        return out, cnt


def reject_plan_store(name: str, value) -> None:
    """Refuse a plan-store location: the store was removed.  ``None``
    and ``""`` (the store's off switch) stay accepted as no-ops."""
    if value is not None and value != "":
        raise ValueError(
            f"{name}={value!r}: the persistent plan store was removed; "
            "every plan compiles in the process that runs it"
        )


class Treecode:
    """Barnes-Hut treecode for the 3-D Laplace kernel.

    Parameters
    ----------
    points, charges:
        Source particles, ``(n, 3)`` and ``(n,)``.
    degree_policy:
        A :class:`~repro.core.degree.DegreePolicy`; defaults to the
        improved method ``AdaptiveChargeDegree(p0=4, alpha=alpha)``.
    alpha:
        MAC parameter in ``(0, 1)``.
    leaf_size:
        Octree leaf capacity.  ``None`` (the default) builds leaves of
        16 and lets each cluster plan choose the level it cuts that
        octree at with a cost model; an integer pins the full tree.
        Target-major and ``tol`` plans always use the full tree.
    expansion_center:
        Passed to :func:`~repro.tree.octree.build_octree`.
    softening:
        Plummer softening length ε applied to the *near-field* kernel
        (``1/sqrt(r²+ε²)``), as gravitational n-body codes do; the far
        field is unchanged (for ε well below the leaf scale the
        far-field difference is O(ε²/r³), far under the truncation
        error).
    tree:
        An already-built :class:`~repro.tree.octree.Octree` over the
        *same* points, to share across several treecodes (sweep drivers
        vary only ``alpha`` or the degree policy).  The tree's spatial
        structure and expansion centers are reused as-is; its charge
        aggregates are recomputed from ``charges`` (matching the
        :meth:`set_charges` semantics), so a reused tree may carry stale
        charges from a previous owner without affecting correctness.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Treecode, FixedDegree
    >>> rng = np.random.default_rng(0)
    >>> pts = rng.random((500, 3)); q = rng.random(500)
    >>> tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.6)
    >>> res = tc.evaluate()
    >>> res.potential.shape
    (500,)
    """

    def __init__(
        self,
        points: np.ndarray,
        charges: np.ndarray,
        degree_policy: DegreePolicy | None = None,
        alpha: float = 0.5,
        leaf_size: int | None = None,
        expansion_center: str = "abs_com",
        max_depth: int = 20,
        softening: float = 0.0,
        tree: Octree | None = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if softening < 0.0:
            raise ValueError(f"softening must be >= 0, got {softening}")
        self.alpha = float(alpha)
        self.softening = float(softening)
        #: ``None`` lets cluster plans choose their octree cut level
        self.leaf_size = None if leaf_size is None else int(leaf_size)
        self.degree_policy = (
            degree_policy
            if degree_policy is not None
            else AdaptiveChargeDegree(p0=4, alpha=alpha)
        )
        check_finite("treecode.points", np.asarray(points), context="input positions")
        check_finite("treecode.charges", np.asarray(charges), context="input charges")

        with stopwatch("treecode.build", n=int(points.shape[0])) as sw_build:
            if tree is not None:
                pts = np.asarray(points, dtype=np.float64)
                if tree.n_particles != pts.shape[0] or not np.array_equal(
                    tree.points, pts[tree.perm]
                ):
                    raise ValueError("reused tree does not match the given points")
                self.tree: Octree = tree
                self.set_charges(charges)
            else:
                self.tree = build_octree(
                    points,
                    charges,
                    leaf_size=16 if leaf_size is None else leaf_size,
                    expansion_center=expansion_center,
                    max_depth=max_depth,
                )

        # the degree schedule; expansions are formed by the plans
        with stopwatch("treecode.upward") as sw_up:
            self.p_eval = np.asarray(
                self.degree_policy.degrees(self.tree), dtype=np.int64
            )
            if self.p_eval.shape != (self.tree.n_nodes,):
                raise ValueError("degree policy returned wrong-shaped array")

        self.base_stats = TreecodeStats(
            build_time=sw_build.elapsed, upward_time=sw_up.elapsed
        )
        if is_enabled():
            REGISTRY.counter("tree_builds", "octrees constructed").inc()
            REGISTRY.gauge("tree_height", "height of the most recent octree").set(
                self.tree.height
            )
            REGISTRY.gauge("tree_nodes", "node count of the most recent octree").set(
                self.tree.n_nodes
            )

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def traverse(self, targets: np.ndarray, self_targets: bool) -> InteractionLists:
        """Produce interaction lists for the given targets.

        ``self_targets=True`` means the targets *are* the (Morton-sorted)
        source particles, enabling exact self-exclusion in the near field.

        The walk is level-synchronous: a frontier of ``(node, target)``
        pairs, sorted by node then target, descends one tree level per
        step with one vectorised MAC test for the whole level.  Accepted
        pairs and near blocks are then placed at their nodes' preorder
        offsets, so the lists come out in the preorder of a depth-first
        walk, targets ascending within a node.  Targets are walked in
        blocks of ``_TARGET_BLOCK`` so the frontier stays bounded.
        """
        tree = self.tree
        targets = np.asarray(targets, dtype=np.float64)
        alpha2 = self.alpha * self.alpha
        r2 = tree.radius * tree.radius
        # a zero-radius cluster is accepted by every target not on it
        point = tree.radius == 0.0
        has_point = bool(point.any())
        nt = targets.shape[0]
        tdt = np.int32 if nt < 2**31 else np.int64
        far, near = _Runs(tree.n_nodes, tdt), _Runs(tree.n_nodes, tdt)
        for b0 in range(0, nt, _TARGET_BLOCK):
            tid = np.arange(b0, min(b0 + _TARGET_BLOCK, nt))
            node = np.zeros(tid.size, dtype=np.int64)
            while node.size:
                delta = np.take(targets, tid, axis=0)
                delta -= np.take(tree.center_exp, node, axis=0)
                d2 = np.einsum("ij,ij->i", delta, delta)
                acc = np.take(r2, node) <= alpha2 * d2
                if has_point:
                    acc &= (d2 > 0.0) | ~np.take(point, node)
                far.add(node[acc], tid[acc])
                node, tid = node[~acc], tid[~acc]
                leaf = tree.n_children[node] == 0
                near.add(node[leaf], tid[leaf])
                node, tid = _descend(tree, node[~leaf], tid[~leaf])

        # nodes in depth-first preorder: by first particle, ancestors first
        order = np.lexsort((tree.level, tree.start))
        ft, fcnt = far.place(order)
        fn = np.repeat(order, fcnt[order])
        near_t, ncnt = near.place(order)
        leaves = order[ncnt[order] > 0]
        cut = np.cumsum(ncnt[leaves]).tolist()
        near_blocks = [
            (leaf, near_t[a:b]) for leaf, a, b in zip(leaves.tolist(), [0] + cut, cut)
        ]
        return InteractionLists(far_nodes=fn, far_targets=ft, near=near_blocks)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        targets: np.ndarray | None = None,
        compute: str = "potential",
        accumulate_bounds: bool = False,
    ) -> TreecodeResult:
        """Evaluate the potential (and optionally gradient) at targets.

        Parameters
        ----------
        targets:
            ``(t, 3)`` evaluation points, or ``None`` to evaluate at the
            source particles themselves (self-interaction excluded;
            results returned in the original input ordering).
        compute:
            ``"potential"`` or ``"both"`` (potential + gradient).
        accumulate_bounds:
            If true, also return the per-target sum of Theorem-1 bounds
            over all accepted interactions — a rigorous a-posteriori
            error bound on the returned potential.

        Each call compiles the interaction lists into a fully spilled
        target-major plan (``memory_budget=0``: nothing is frozen) and
        executes it once, so a one-shot evaluation pays no operator
        memory.  The result's ``stats.eval_time`` covers compile and
        execute.

        Returns
        -------
        :class:`TreecodeResult`
        """
        if compute not in ("potential", "both"):
            raise ValueError(f"compute must be 'potential' or 'both', got {compute!r}")
        tree = self.tree
        self_targets = targets is None
        tgt = tree.points if self_targets else np.asarray(targets, dtype=np.float64)
        if tgt.ndim != 2 or tgt.shape[1] != 3:
            raise ValueError(f"targets must have shape (t, 3), got {tgt.shape}")

        from ..perf.plan import compile_plan

        with span("treecode.evaluate", targets=int(tgt.shape[0]), compute=compute):
            with stopwatch("treecode.traverse", targets=int(tgt.shape[0])) as sw:
                lists = self.traverse(tgt, self_targets)
            with stopwatch("treecode.eval") as sw_eval:
                # tol=None: the per-node degree schedule, even under a
                # VariableDegree policy (per-pair selection is a plan option)
                plan = compile_plan(
                    self,
                    lists,
                    tgt,
                    self_targets=self_targets,
                    compute=compute,
                    accumulate_bounds=accumulate_bounds,
                    memory_budget=0,
                )
                charges = np.empty_like(tree.charges)
                charges[tree.perm] = tree.charges
                result = plan.execute(charges)
        result.stats.traverse_time = sw.elapsed
        result.stats.eval_time = sw_eval.elapsed
        return result

    def set_charges(self, charges: np.ndarray) -> None:
        """Replace the source charges.

        Re-sorts them into Morton order and recomputes the per-node
        charge aggregates (``abs_charge``/``net_charge``) the degree
        policies and bounds read.  The tree structure,
        expansion centers and degree schedule are kept (the paper fixes
        all degree-selection parameters at tree construction time).
        Compiled plans hold no charge state, so this never invalidates
        one.
        """
        charges = np.asarray(charges, dtype=np.float64)
        tree = self.tree
        if charges.shape != (tree.n_particles,):
            raise ValueError(
                f"charges must have shape ({tree.n_particles},), got {charges.shape}"
            )
        q_sorted = charges[tree.perm]
        tree.charges = q_sorted
        cs_abs = np.concatenate([[0.0], np.cumsum(np.abs(q_sorted))])
        cs_net = np.concatenate([[0.0], np.cumsum(q_sorted)])
        tree.abs_charge = cs_abs[tree.end] - cs_abs[tree.start]
        tree.net_charge = cs_net[tree.end] - cs_net[tree.start]

    def compile_plan(
        self,
        targets: np.ndarray | None = None,
        compute: str = "potential",
        accumulate_bounds: bool = False,
        memory_budget: int | None = None,
        lists: InteractionLists | None = None,
        mode: str = "target",
        tol: float | None = None,
        cache_dir=None,  # goes at the next benchmark change: perfbench passes ""
        source_map=None,
        criterion=None,
    ):
        """Freeze this treecode's geometry into a compiled plan for
        repeated matvecs.

        ``targets=None`` compiles a self-evaluation plan (targets are the
        source particles, self-interaction excluded, results in input
        order), matching :meth:`evaluate`.  Pass cached ``lists`` to skip
        the traversal.  ``plan.execute(q)`` then equals
        ``set_charges(q)`` + :meth:`evaluate` to rounding, without
        touching this treecode's state.

        ``mode="target"`` builds the target-major
        :class:`~repro.perf.plan.CompiledPlan` (per-pair far rows);
        ``mode="cluster"`` builds the dual-traversal
        :class:`~repro.perf.cluster.ClusterPlan` (box-box M2L into
        per-leaf local expansions; requires ``targets=None``; ``lists``
        is not used), and ``criterion`` its dual traversal's separation
        criterion: the α-MAC :class:`~repro.tree.dualtree.BoxMAC` by
        default, or the FMM's :class:`~repro.tree.dualtree.VList`.

        ``tol`` switches the compiler to **variable-order** mode: each
        far interaction gets the minimal degree whose Theorem-1 (or
        dual-MAC) bound keeps every target's aggregate error ledger at
        or below ``tol``, and interactions are bucketed by degree so
        every kernel stays a GEMM.  When this treecode was built with a
        :class:`~repro.core.degree.VariableDegree` policy, ``tol``
        defaults to the policy's tolerance.  The budget is anchored at
        the charges held when the plan is compiled (``set_charges``
        before compiling to re-anchor); the a-posteriori ledger the plan
        reports always bounds the true error regardless.

        Every plan compiles in the process that runs it: there is no
        plan store.  ``cache_dir`` accepts only ``None`` or ``""`` (see
        :func:`reject_plan_store`).

        ``source_map`` (sparse ``n_particles × m``, target-major plans
        only) folds a fixed linear map from source vectors to charges
        into the plan's P2M and near operators: ``plan.execute(x)``
        then returns the potentials of the charges ``source_map @ x``
        without forming them (the BEM operator's quadrature map).
        """
        from ..perf.plan import DEFAULT_MEMORY_BUDGET, compile_plan
        from .degree import VariableDegree

        reject_plan_store("cache_dir", cache_dir)
        if tol is None and isinstance(self.degree_policy, VariableDegree):
            tol = self.degree_policy.tol
        self_targets = targets is None
        tgt = (
            self.tree.points if self_targets else np.asarray(targets, dtype=np.float64)
        )
        if mode == "cluster":
            if not self_targets:
                raise ValueError(
                    "mode='cluster' evaluates at the source particles; "
                    "pass targets=None"
                )
        elif lists is None:
            lists = self.traverse(tgt, self_targets)
        return compile_plan(
            self,
            lists,
            tgt,
            self_targets=self_targets,
            compute=compute,
            accumulate_bounds=accumulate_bounds,
            memory_budget=(
                DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
            ),
            mode=mode,
            tol=tol,
            source_map=source_map,
            criterion=criterion,
        )

    # convenience ------------------------------------------------------
    @property
    def height(self) -> int:
        return self.tree.height

    def describe(self) -> str:
        """One-line summary of the built structure."""
        t = self.tree
        return (
            f"Treecode(n={t.n_particles}, nodes={t.n_nodes}, height={t.height}, "
            f"alpha={self.alpha}, policy={self.degree_policy.name}, "
            f"degrees {self.p_eval.min()}..{self.p_eval.max()})"
        )

