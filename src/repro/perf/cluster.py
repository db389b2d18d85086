r"""Cluster-cluster compiled plans: dual-traversal M2L into leaf locals.

The target-major :class:`~repro.perf.plan.CompiledPlan` freezes one
evaluation row per (cluster, target) pair — O(pairs · p²) memory, which
at n ≈ 50k outgrows any reasonable budget and forces most far chunks to
spill back to on-the-fly evaluation.  A :class:`ClusterPlan` changes the
*algorithm*, not just the storage: a dual-tree traversal
(:func:`~repro.tree.dualtree.dual_traverse`) decomposes the interaction
into **box-box** pairs under the two-sided MAC
``(a_src + a_tgt)/r <= alpha`` (or, for the FMM, the V-list criterion:
the plan takes the traversal's criterion object), each applied as a
single M2L translation into the target box's *local expansion*; locals
are pushed to the leaves with L2L and evaluated with one frozen L2P BSR
product per (unit, degree) group (:mod:`repro.perf.operators`).  Plan
memory is O(box pairs + keys · p⁴ + n · p²) — index arrays, one dense
operator per lattice key and per-target L2P rows; there are **no**
per-pair row matrices and therefore no far spills, ever.

Per accepted pair the combined M2L → L2L → L2P pipeline truncated at
the source degree ``p`` obeys the dual Theorem-1 bound

.. math::

    |\Phi - \Phi_p| \le
    \frac{A}{r - a_s - a_t} \left(\frac{a_s + a_t}{r}\right)^{p+1},

i.e. :func:`~repro.core.bounds.theorem1_bound` with the *combined*
radius ``a_s + a_t`` — the same geometric series argument with the
target offset absorbed into the effective cluster radius.  The plan
accumulates this per-target when compiled with ``accumulate_bounds``
and books it into ``bound_by_level`` under the source box's level, so
:func:`~repro.robust.guards.check_bound_accounting` holds exactly as in
the target-major path.

**Box centres.**  A cluster plan compiles against a box-centred view of
the treecode's octree (:func:`_box_view`): the same nodes, expanded
about their geometric centres with the exact enclosing radius about
them.  The well-separated-pair MAC (Engblom) and the bound above hold
for any centre, and box centres put every pair displacement on a
dyadic lattice (:mod:`repro.multipole.lattice`).  L2L is one GEMM per
level.  M2L has no per-pair scaling:

* one frozen operator ``diag(κ_s⁻ⁿ) T(û) diag(κ_t⁻ʲ⁻¹)`` per exact key
  (canonical direction, squared offset in units of the finer box,
  level step), where ``ρ = κ_s h_s = κ_t h_t`` and ``h`` is a box half
  size;
* once per execute and degree (:meth:`ClusterPlan.form_coefficients`)
  the operand rows are multiplied by ``h_s⁻ⁿ`` — exact powers of two,
  the root half size's mantissa lives in the operators — and stacked in
  the eight octant reflections ``X ⊙ S_o``;
* a pair gathers row ``o·rows + col``, one GEMM runs per key, a CSR of
  ones sums pairs into (target, octant) buckets, and per target
  ``L += h_t⁻⁽ʲ⁺¹⁾ ⊙ Σ_o S_o ⊙ Z[t, o]``;
* keys past the frozen share of the memory budget are applied in one
  direction-major pass per far unit (:meth:`ClusterPlan._m2l_rebuilt`),
  which builds each direction once and scales those pairs itself.

The target-major plans keep their charge-centred expansions.  The near
field is the target-major plan's (:meth:`CompiledPlan._compile_near`):
each target leaf's particles see one source list, the concatenated
particles of its near-listed source leaves.  The traversal lists every
near leaf pair in both orders, so the frozen potential assembly
evaluates one tile per pair and copies its transpose into the other
(:func:`~repro.perf.operators.assemble_near`'s ``mirror``).

**The cut.**  On a ``Treecode(leaf_size=None)`` a plan chooses the
octree level it cuts at (:func:`_cut_view`): a coarse cut moves work
from M2L into the near CSR, and the dual bound holds at any cut.  One
full-depth traversal prices every level (:func:`_cut_terms`,
:func:`_price_cuts`) and the plan compiles the cheapest whose near field
fits the budget; an explicit leaf size, or ``tol``, keeps the full tree.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..core.bounds import theorem1_bound
from ..core.degree import select_pair_degrees
from ..core.treecode import Treecode, TreecodeStats
from ..multipole.harmonics import ncoef, regular_solid, term_count
from ..multipole.lattice import (
    interleave_index,
    interleaved_degrees,
    key_diagonals,
    key_operators,
    l2l_operator,
    lattice_keys,
    level_keys,
    m2l_operators,
    octant_signs,
    octants,
    scales,
    unpack_keys,
)
from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..parallel.partition import translation_cost
from ..tree.dualtree import BoxMAC, dual_traverse
from ..tree.octree import Octree, enclosing_radius
from .operators import (
    bsr,
    csr,
    csr_product,
    index_dtype,
    op_nbytes,
)
from .plan import _NEAR_ENTRY_BYTES, DEFAULT_MEMORY_BUDGET, CompiledPlan, _row_blocks

__all__ = ["ClusterPlan"]

#: Number of far work units (parallelism granularity).  Each unit
#: re-translates the box pairs that straddle its target range and runs
#: its own GEMM per lattice direction, so more units mean more
#: duplicated M2L work and shorter, less efficient GEMMs: on uniform
#: n=3000 (1-thread BLAS, median of 7) a serial execute of the
#: leaf-16 plan takes 0.021 s with 2 units and 0.030 s with 8, and of
#: the chosen cut 0.0061 s and 0.0082 s.  The near field adds one unit
#: per target leaf for the executors.
_DEFAULT_UNITS = 2

#: Frozen lattice operators may take ``1 / _OPERATOR_SHARE`` of the
#: plan's memory budget.  Default plans stay far below it (11 MB of
#: operators at n=3000, 20 MB at n=20k); tol plans at degrees in the
#: thirties and forties would otherwise fill the whole budget — 550 MB
#: for 250 points at tol 1e-9 — and rebuild the rest per execute anyway.
_OPERATOR_SHARE = 8

#: Hard degree ceiling of the M2L operators: ``sqrt((4p)!)`` in the
#: singular grid overflows float64 once ``4p > 170``.  Variable-order
#: degree selection is capped here (and raises, never clamps, when a
#: budget would need more).
_M2L_MAX_P = 42


def _box_view(tree: Octree) -> tuple[Octree, np.ndarray, float]:
    """Box-centred view of ``tree`` plus its lattice.

    Returns ``(view, ic, unit)``: the view shares every array of
    ``tree`` except ``center_exp`` (the geometric box centres) and
    ``radius`` (the exact enclosing radius about them, one segmented
    max per level); ``ic`` are the integer box-centre coordinates in
    ``unit`` — the view's finest level's half size — so every centre
    displacement is ``unit`` times an exact integer vector.
    """
    if tree.expansion_center != "box":
        tree = dataclasses.replace(
            tree,
            center_exp=tree.center_geom,
            radius=enclosing_radius(
                tree.points, tree.start, tree.end, tree.level_ranges, tree.center_geom
            ),
            expansion_center="box",
        )
    return _cut_view(tree, tree.height - 1)


def _cut_view(view: Octree, cut: int) -> tuple[Octree, np.ndarray, float]:
    """``(view, ic, unit)`` of a box-centred ``view`` cut at level
    ``cut``: nodes are stored level by level, so the cut keeps the
    node-id prefix ``[0, level_ranges[cut][1])`` — every kept node keeps
    its id and with it its degree — and the level-``cut`` nodes become
    leaves.  The full height returns ``view`` itself."""
    top = view.height - 1
    if not min(1, top) <= cut <= top:
        raise ValueError(f"cut must be in [1, {top}], got {cut}")
    lo, hi = view.level_ranges[cut]
    if hi < view.n_nodes:
        at_cut = view.level[:hi] == cut
        nodes = {
            f.name: getattr(view, f.name)[:hi]
            for f in dataclasses.fields(view)
            if f.name not in ("points", "charges", "perm", "domain_lo", "domain_hi")
            and isinstance(getattr(view, f.name), np.ndarray)
        }
        nodes["n_children"] = np.where(at_cut, 0, nodes["n_children"]).astype(np.int32)
        nodes["first_child"] = np.where(at_cut, -1, nodes["first_child"])
        view = dataclasses.replace(
            view, level_ranges=view.level_ranges[: cut + 1], **nodes
        )
    unit = float(view.half_size[lo])
    ic = np.rint((view.center_geom - view.domain_lo) / unit).astype(np.int64)
    return view, ic, unit


#: Cost model of a cut (see DESIGN.md, "Choosing the cut"): seconds per
#: unit of each term, for compile plus one execute.  Fitted once by
#: ``python benchmarks/bench_depth.py --fit`` and fixed here, so the same
#: inputs always choose the same cut.
_CUT_COST = {
    "near": 1.29e-08,  #: per near CSR entry: assembled once, applied once
    "near_grad": 2.632e-08,  #: per near entry, extra for the gradient arrays
    "flops": 4.959e-10,  #: per M2L GEMM flop of one execute (with its pair's passes)
    "pairs": 0.0,  #: per box pair: keys, sorts and sums at compile, gathers per execute
    "rows": 1.624e-08,  #: per P2M and L2P coefficient row entry, built and applied
    "base": 0.01108,  #: per candidate with any far field: operators, units, L2L
}
#: Seconds per pair (far and near) of a dual traversal.  The full height
#: compiles from the traversal that priced it, every other cut traverses
#: its own view, so the full height is credited its traversal.
_TRAVERSE_PAIR_S = 1.33e-07


def _gemm_flops(p) -> np.ndarray:
    """M2L GEMM flops of a box pair at degree ``p``: one ``(2·nc)²``
    operator applied to a ``2·nc`` row."""
    nc2 = (np.asarray(p) + 1.0) * (np.asarray(p) + 2)
    return 2.0 * nc2 * nc2


def _cut_terms(view: Octree, pairs, degrees: np.ndarray, grad: bool) -> dict:
    """Cost-model terms of cutting the box-centred ``view`` at each level
    ``1 .. height - 1``, priced from its one full-depth dual traversal
    ``pairs`` (per-node degrees ``degrees``).

    Nodes split level by level, so a cut traversal makes the full one's
    decisions on every pair of nodes above the cut: its far pairs are
    those whose deeper box is at most at the cut level (exactly, but for
    a rare pair whose full traversal split a cut-level box against a
    larger box), and by the partition property every particle pair no
    such far pair covers is one near entry.  One weighted bincount per
    term over the far pairs' deeper levels prices every cut.  ``mirror``
    is not priced: it is half the near entries between different
    leaves, which a mirrored potential assembly copies when every leaf
    is a dense block (fewer when small leaves are not; none in a
    gradient plan).
    """
    H = view.height
    fs, ft = pairs.far_src, pairs.far_tgt
    cnt = (view.end - view.start).astype(np.float64)
    fl = np.maximum(view.level[fs], view.level[ft]).astype(np.int64)

    def upto(w=None) -> np.ndarray:
        return np.cumsum(np.bincount(fl, weights=w, minlength=H))[1:H]

    p = degrees[fs]
    # P2M rows appear with a source's shallowest pair; L2P rows are
    # every target at the highest degree the cut's pairs reach
    first = np.full(view.n_nodes, H, dtype=np.int64)
    np.minimum.at(first, fs, fl)
    has = first < H
    row = cnt * (degrees + 1) * (degrees + 2)
    p2m = np.cumsum(np.bincount(first[has], weights=row[has], minlength=H))[1:H]
    pmax = np.full(H, -1.0)
    # float operand: an int one takes ufunc.at's casting slow path
    np.maximum.at(pmax, fl, p.astype(np.float64))
    pmax = np.maximum.accumulate(pmax)[1:H]
    l2p = np.where(pmax >= 0, view.n_particles * (pmax + 1) * (pmax + 2), 0.0)
    n_pairs = upto()
    near = float(view.n_particles) ** 2 - upto(cnt[fs] * cnt[ft])
    # a cut's leaves: its level's nodes and the leaves above it
    sq = cnt * cnt
    leaf = view.n_children == 0
    diag = np.bincount(view.level, weights=sq, minlength=H)[1:H]
    diag += np.cumsum(np.bincount(view.level[leaf], weights=sq[leaf], minlength=H))[: H - 1]
    reuse = np.zeros(H - 1)
    reuse[-1] = pairs.n_far + pairs.n_near
    return {
        "cut": np.arange(1, H),
        "reuse": reuse,
        "near": near,
        "near_grad": near if grad else np.zeros_like(near),
        "mirror": np.zeros_like(near) if grad else (near - diag) / 2,
        "flops": upto(_gemm_flops(p)),
        "pairs": n_pairs,
        "rows": p2m + l2p * (4.0 if grad else 1.0),
        "base": (n_pairs > 0).astype(np.float64),
    }


def _price_cuts(terms: dict, memory_budget: int, grad: bool) -> list[dict]:
    """Predicted compile-plus-one-execute seconds of every candidate cut.
    A cut whose near CSR and coefficient rows would not fit the memory
    budget beside the operators' share is dropped (its near field would
    be re-assembled on every execute), except the full height, which is
    always a candidate."""
    entry = _NEAR_ENTRY_BYTES + (3 * 8 if grad else 0)
    nbytes = terms["near"] * entry + terms["rows"] * 8
    room = memory_budget - memory_budget // _OPERATOR_SHARE
    seconds = sum(_CUT_COST[k] * terms[k] for k in _CUT_COST)
    seconds = seconds - _TRAVERSE_PAIR_S * terms["reuse"]
    last = int(terms["cut"][-1])
    return [
        {
            "cut": int(c),
            "near_entries": int(terms["near"][i]),
            "near_mirror_entries": int(terms["mirror"][i]),
            "m2l_flops": float(terms["flops"][i]),
            "box_pairs": int(terms["pairs"][i]),
            "seconds": float(seconds[i]),
            "fits": bool(nbytes[i] <= room or c == last),
        }
        for i, c in enumerate(terms["cut"])
    ]


def _key_ids(dkey: np.ndarray, r2f: np.ndarray, step: np.ndarray):
    """Lattice keys of pairs with packed directions ``dkey``, normalised
    squared lengths ``r2f`` and level steps ``step``, numbered in
    lexicographic (direction-major) order.  Returns ``(ids, first,
    dirs, kdir)``: the key id per pair, one pair of each key, the sorted
    distinct directions and each key's direction id."""
    order = np.lexsort((step, r2f, dkey))
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in (dkey, r2f, step):
        cs = c[order]
        new[1:] |= cs[1:] != cs[:-1]
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    first = order[new]
    dirs, kdir = np.unique(dkey[first], return_inverse=True)
    return ids, first, dirs, kdir


@dataclass
class _FarGroup:
    """Box pairs of one source degree inside one work unit, sorted by
    M2L operator: runs of pairs sharing a lattice key are one GEMM
    each, and a ((octants × targets) × pairs) sum matrix reduces them
    into per-octant target buckets."""

    p: int
    cols: np.ndarray  #: per pair, ``octant · rows + row`` of the folded operand
    runs: np.ndarray  #: equal-operator run boundaries, ``(runs + 1,)``
    ops: np.ndarray  #: operator (key) id per run
    red: object  #: CSR of ones, row ``o · len(utgt) + t``, columns pairs
    utgt: np.ndarray  #: target box ids
    bgeom: np.ndarray | None  #: dual Theorem-1 factor at unit |q|
    levels: np.ndarray | None  #: source box level per pair
    cnt_t: np.ndarray | None  #: unit targets under the target box
    #: per pair, its target's position in ``utgt`` — kept by groups with
    #: runs past the frozen operator share, whose pairs it sums per target
    tpos: np.ndarray | None = None


@dataclass
class _L2PGroup:
    """Frozen local-evaluation rows for the unit leaves of one degree."""

    p: int
    tidx: np.ndarray  #: target indices (block rows, Morton-sorted space)
    leaves: np.ndarray  #: leaf node ids (block columns: their locals)
    #: BSR ``(1, 2·nc)`` rows of ``R = r^n Y_n^m`` over interleaved locals
    op: object
    gop: object  #: BSR ``(3, 2·nc)`` gradient rows, or ``None``


@dataclass
class _FarUnit:
    """One independent far-field work unit: a contiguous target range
    with its box pairs, L2L push-down edges and L2P rows."""

    tlo: int
    thi: int
    n_pairs: int
    groups: list = field(default_factory=list)
    push_par: list = field(default_factory=list)  #: per level: parents
    push_chi: list = field(default_factory=list)  #: per level: children
    push_oct: list = field(default_factory=list)  #: per level: octant codes
    push_s: list = field(default_factory=list)  #: per level: shift length
    l2p: list = field(default_factory=list)


class ClusterPlan(CompiledPlan):
    """Dual-traversal cluster-cluster evaluation plan.

    Compile with :func:`repro.perf.plan.compile_plan` (``mode="cluster"``)
    or :meth:`repro.core.treecode.Treecode.compile_plan`; the interface
    — :meth:`execute`, :meth:`form_coefficients` / :meth:`execute_unit`
    for the parallel executors, :meth:`finalize` — is that of
    :class:`~repro.perf.plan.CompiledPlan`.  Cluster plans always
    evaluate at the treecode's own points (``self_targets``).

    ``n_far_spilled`` is always 0: the far field stores no row matrices,
    only index arrays, the lattice operators and the per-target L2P
    rows, all resident.  The near field is the target-major plan's:
    row-range units over incidences, the leading units within budget
    frozen into one CSR and the rest re-assembled per application; a
    target leaf's rows see one source list, so a large leaf is one
    dense block, applied as one BLAS product.
    :meth:`execute` matches the target-major plan (and so
    :meth:`Treecode.evaluate`) within the Theorem-1 truncation ledgers:
    the cluster path expands about box centres and adds the target-side
    truncation, which the dual bound accounts for.

    ``cut_level`` is the octree level the plan cut at and ``cut_costs``
    the cost model's candidates (empty when the cut was pinned).  ``cut``
    compiles a given level instead, for benchmarks and tests.
    ``criterion`` is the dual traversal's separation criterion:
    :class:`~repro.tree.dualtree.BoxMAC` of the treecode's α by default,
    or :class:`~repro.tree.dualtree.VList` (the FMM's).
    """

    _mode = "cluster"

    def __init__(
        self,
        tc: Treecode,
        tgt: np.ndarray,
        self_targets: bool = True,
        compute: str = "potential",
        accumulate_bounds: bool = False,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        tol: float | None = None,
        cut: int | None = None,
        criterion=None,
    ) -> None:
        if not self_targets:
            raise ValueError(
                "cluster plans evaluate at the treecode's own points; "
                "self_targets must be True"
            )
        self._cut_req = cut
        #: the dual traversal's separation criterion
        self.criterion = BoxMAC(tc.alpha) if criterion is None else criterion
        super().__init__(
            tc,
            None,
            tgt,
            self_targets=True,
            compute=compute,
            accumulate_bounds=accumulate_bounds,
            memory_budget=memory_budget,
            tol=tol,
        )

    # -- compilation ---------------------------------------------------
    def _compile(self, lists) -> None:  # noqa: ARG002 - dual walk, no lists
        tc = self.tc
        grad_wanted = self.compute == "both"
        want_bounds = self.accumulate_bounds
        mem = 0
        budget_used = 0
        stats = TreecodeStats(n_targets=int(self.tgt.shape[0]))
        self._pair_p_max = min(self._pair_p_max, _M2L_MAX_P)

        # ---- the cut: pinned (an explicit leaf size, a tol plan, whose
        # degrees are selected against the full tree's ledger, or a
        # requested level), or the cheapest candidate priced from one
        # full-depth traversal ----------------------------------------
        full, _, _ = _box_view(tc.tree)
        top = full.height - 1
        pairs = None
        #: per candidate cut: predicted work and seconds (chosen plans)
        self.cut_costs: list[dict] = []
        if self._cut_req is not None:
            cut = int(self._cut_req)
        elif tc.leaf_size is not None or self.tol is not None or top <= 1:
            cut = top
        else:
            pairs = dual_traverse(full, self.criterion)
            self.cut_costs = _price_cuts(
                _cut_terms(full, pairs, tc.p_eval, grad_wanted),
                self.memory_budget,
                grad_wanted,
            )
            fits = [c for c in self.cut_costs if c["fits"]]
            cut = min(fits, key=lambda c: c["seconds"])["cut"]
            emit("plan_depth", chosen=cut, height=top, candidates=self.cut_costs)
        tree, ic, _ = _cut_view(full, cut)
        if pairs is None or cut != top:
            pairs = dual_traverse(tree, self.criterion)
        #: octree level the plan cuts at: its nodes there are the leaves
        self.cut_level = cut
        self._n_nodes = tree.n_nodes
        fs, ft = pairs.far_src, pairs.far_tgt
        r_pair = pairs.far_r
        if not fs.size:
            p_pair = np.empty(0, dtype=np.int64)
        elif self.tol is None:
            p_pair = tc.p_eval[fs]
        else:
            p_pair = self._select_pair_degrees(tree, fs, ft, r_pair)
        self.n_box_pairs = pairs.n_far
        self.n_near_pairs = pairs.n_near
        #: per-box-pair degree in dual-traversal emission order
        self.pair_degrees = np.asarray(p_pair, dtype=np.int64)

        # ---- frozen stats from the global pair decomposition ----------
        # (per-unit duplication of straddling pairs must not inflate
        # the interaction counts)
        stats.n_pc_interactions = int(fs.size)
        if fs.size:
            for p in np.unique(p_pair):
                k = int(np.count_nonzero(p_pair == p))
                stats.interactions_by_degree[int(p)] = k
                stats.n_terms += k * term_count(int(p))
            for L, c in enumerate(np.bincount(tree.level[fs])):
                if c:
                    stats.interactions_by_level[int(L)] = int(c)

        # ---- P2M storage: one operator per source node at its max
        # pair degree; lower-degree pairs slice leading coefficients ----
        self._p2m_groups = []
        self._operands: dict[int, tuple] = {}
        self._operand_nodes: dict[int, np.ndarray] = {}
        cols = np.empty(0, dtype=np.int64)
        if fs.size:
            cols, p2m_mem = self._build_coefficients(fs, p_pair, tree)
            mem += p2m_mem

        # ---- lattice M2L operators: one per (direction, length, level
        # step) key, at the highest degree of its pairs; lowest degrees
        # are frozen first, within a share of the memory budget, and
        # the rest are rebuilt per execute ----------------------------
        self._m2l_ops: list[np.ndarray | None] = []
        self._m2l_rebuild = np.empty(0, dtype=bool)  #: keys rebuilt per execute
        self._m2l_dirs = np.empty(0, dtype=np.int64)  #: packed directions
        self._m2l_kdir = np.empty(0, dtype=np.int64)  #: direction id per key
        self._m2l_kappa = np.empty((0, 2))  #: ``(κ_s, κ_t) · mant`` per key
        # box half sizes are ``mant · 2^(exp − level)``
        mant, exp = np.frexp(float(tree.half_size[0]))
        self._lat_exp = int(exp)
        lat = None
        if fs.size:
            dkey, octs, r2 = lattice_keys(ic[fs] - ic[ft])
            r2f, step = level_keys(r2, tree.level[fs], tree.level[ft], tree.height - 1)
            op_id, first, self._m2l_dirs, self._m2l_kdir = _key_ids(dkey, r2f, step)
            # rho / h = sqrt(r2f) on the finer side, halved per level
            # on the coarser one
            base = mant * np.sqrt(r2f[first].astype(np.float64))
            st = step[first].astype(np.int32)
            self._m2l_kappa = np.stack(
                [np.ldexp(base, np.minimum(st, 0)), np.ldexp(base, np.minimum(-st, 0))],
                axis=1,
            )
            P_op = np.zeros(first.size, dtype=np.int64)
            np.maximum.at(P_op, op_id, p_pair)
            self._m2l_ops = [None] * first.size
            op_budget = self.memory_budget // _OPERATOR_SHARE
            mem += sum(
                a.nbytes for a in (self._m2l_dirs, self._m2l_kdir, self._m2l_kappa)
            )
            for P in np.unique(P_op):
                sel = np.nonzero(P_op == P)[0]
                nbytes = 8 * (2 * ncoef(int(P))) ** 2
                sel = sel[: max(0, (op_budget - budget_used) // nbytes)]
                if sel.size:
                    T = key_operators(
                        self._m2l_dirs[self._m2l_kdir[sel]],
                        self._m2l_kappa[sel],
                        int(P),
                    )
                    for i, Ti in zip(sel, T):
                        self._m2l_ops[i] = Ti
                    budget_used += T.nbytes
                    mem += T.nbytes
            self._m2l_rebuild = np.array([T is None for T in self._m2l_ops])
            lat = (op_id, octs.astype(np.int8))

        # ---- local degree per box: max over incoming pairs, pushed
        # down so every descendant can absorb inherited locals ---------
        Ploc = np.full(tree.n_nodes, -1, dtype=np.int64)
        if fs.size:
            np.maximum.at(Ploc, ft, p_pair)
            for dlev in range(1, tree.height):
                # basic slices: ``out=`` on a fancy-indexed view would
                # write into a temporary and drop the push-down
                lo, hi = tree.level_ranges[dlev]
                np.maximum(
                    Ploc[lo:hi], Ploc[tree.parent[lo:hi]], out=Ploc[lo:hi]
                )
        self._Pmax = int(Ploc.max()) if fs.size else 0
        self._l2l_op = l2l_operator(self._Pmax)
        mem += self._l2l_op.nbytes

        # ---- partition Morton-sorted targets into far work units ------
        leaves = tree.leaf_ids()
        leaves = leaves[np.argsort(tree.start[leaves])]
        n_leaves = int(leaves.size)
        self._units: list[_FarUnit] = []
        if fs.size:
            # balance on estimated M2L work per leaf at its target box,
            # inherited by every leaf below
            wk = np.zeros(tree.n_nodes)
            np.add.at(wk, ft, translation_cost(p_pair))
            for dlev in range(1, tree.height):
                lo, hi = tree.level_ranges[dlev]
                ids = np.arange(lo, hi)
                wk[ids] += wk[tree.parent[ids]]
            cumw = np.cumsum(wk[leaves] + 1.0)
            req = max(1, min(_DEFAULT_UNITS, n_leaves))
            ends = np.searchsorted(
                cumw, cumw[-1] * np.arange(1, req + 1) / req, side="left"
            )
            ends = np.unique(np.minimum(ends + 1, n_leaves))
            starts_u = np.concatenate([[0], ends[:-1]])
            bs_all, be_all = tree.start[ft], tree.end[ft]
            for ls, le in zip(starts_u, ends):
                mem += self._compile_far_unit(
                    tree,
                    ic,
                    leaves[ls:le],
                    fs,
                    ft,
                    p_pair,
                    r_pair,
                    cols,
                    lat,
                    bs_all,
                    be_all,
                    Ploc,
                    grad_wanted,
                    want_bounds,
                )

        # ---- near field: each target leaf's particles against the
        # concatenated particles of its near-listed source leaves -------
        nsrc, ntgt = pairs.near_src, pairs.near_tgt
        cs = tree.end[nsrc] - tree.start[nsrc]
        ctn = tree.end[ntgt] - tree.start[ntgt]
        stats.n_pp_pairs = int(np.sum(cs * ctn)) - int(
            np.sum(np.where(nsrc == ntgt, ctn, 0))
        )
        order = np.lexsort((nsrc, ntgt))
        nsrc, ntgt, cs = nsrc[order], ntgt[order], cs[order]
        cum = np.zeros(nsrc.size + 1, dtype=np.int64)
        np.cumsum(cs, out=cum[1:])
        src = np.arange(cum[-1]) + np.repeat(tree.start[nsrc] - cum[:-1], cs)
        utl, tstarts = np.unique(ntgt, return_index=True)
        off = cum[np.append(tstarts, nsrc.size)]
        cnt = tree.end[utl] - tree.start[utl]
        first = np.cumsum(cnt) - cnt
        rows = np.arange(cnt.sum()) + np.repeat(tree.start[utl] - first, cnt)
        lists = np.repeat(np.arange(utl.size), cnt)
        # the traversal emits each near leaf pair in both orders: a
        # segment's mate is its pair reversed, so the frozen potential
        # assembly evaluates one tile per pair and copies the other
        mate = np.lexsort((ntgt, nsrc))
        if not (np.array_equal(ntgt[mate], nsrc) and np.array_equal(nsrc[mate], ntgt)):
            mate = None
        mem += self._compile_near(
            tree, rows, lists, src, off, grad_wanted, budget_used,
            mirror=None if mate is None else (cum, mate),
        )

        self._static_stats = stats
        self.memory_bytes = int(mem)
        if is_enabled():
            REGISTRY.gauge(
                "plan_m2l_dirs",
                "canonical lattice directions of the M2L operators of the "
                "most recent cluster plan",
            ).set(len(self._m2l_dirs))

    def _select_pair_degrees(self, tree, fs, ft, r_pair) -> np.ndarray:
        """Variable order: per-pair degrees from the dual-MAC bound.

        Each particle's far-field ledger sums the bounds of the pairs on
        its leaf's ancestor path, so the budget of a pair divides ``tol``
        by the *most loaded leaf* beneath its target box: the pair-count
        along any root-to-leaf path (``cnt_down``), maximized over the
        box's descendant leaves (``maxcnt``).  Every leaf then satisfies
        ``sum of bounds <= cnt_down * (tol / maxcnt) <= tol``.
        """
        incoming = np.bincount(ft, minlength=tree.n_nodes).astype(np.float64)
        cnt_down = incoming
        for dlev in range(1, tree.height):
            lo, hi = tree.level_ranges[dlev]
            ids = np.arange(lo, hi)
            cnt_down[ids] += cnt_down[tree.parent[ids]]
        maxcnt = cnt_down.copy()
        for dlev in range(tree.height - 1, 0, -1):
            lo, hi = tree.level_ranges[dlev]
            ids = np.arange(lo, hi)
            np.maximum.at(maxcnt, tree.parent[ids], maxcnt[ids])
        A = tree.abs_charge[fs]
        asum = tree.radius[fs] + tree.radius[ft]
        p_pair = select_pair_degrees(
            A,
            asum,
            r_pair,
            self.tol / maxcnt[ft],
            p_max=self._pair_p_max,
            nodes=fs,
        )
        # predicted ledger: per-box bound sums pushed down to the leaves
        bsum = np.zeros(tree.n_nodes)
        np.add.at(bsum, ft, theorem1_bound(A, asum, r_pair, p_pair))
        for dlev in range(1, tree.height):
            lo, hi = tree.level_ranges[dlev]
            ids = np.arange(lo, hi)
            bsum[ids] += bsum[tree.parent[ids]]
        leaves = tree.leaf_ids()
        occupied = tree.end[leaves] > tree.start[leaves]
        if np.any(occupied):
            self.predicted_ledger_max = float(bsum[leaves[occupied]].max())
        return p_pair

    def _compile_far_unit(
        self, tree, ic, uleaves, fs, ft, p_pair, r_pair, cols, lat, bs_all,
        be_all, Ploc, grad_wanted, want_bounds,
    ) -> int:
        """Build one far work unit over the contiguous leaf run
        ``uleaves`` of the box-centred ``tree``; returns materialized
        bytes."""
        tgt = self.tgt
        tlo = int(tree.start[uleaves[0]])
        thi = int(tree.end[uleaves[-1]])
        mem = 0

        # pairs whose target box overlaps the unit's particle range
        sel = np.nonzero((bs_all < thi) & (be_all > tlo))[0]
        if sel.size == 0:
            return 0
        ordu = np.lexsort((ft[sel], p_pair[sel]))
        sel = sel[ordu]
        ps_u, tgt_u = p_pair[sel], ft[sel]
        op_id, poct = lat
        unit = _FarUnit(tlo=tlo, thi=thi, n_pairs=int(sel.size))

        uniqp, pstarts = np.unique(ps_u, return_index=True)
        bnds = list(pstarts) + [ps_u.size]
        for p, lo, hi in zip(uniqp, bnds[:-1], bnds[1:]):
            p = int(p)
            gsel = sel[lo:hi]  # target-sorted
            B = hi - lo
            rows = self._operand_nodes[p].size
            # (octant, target) bucket of each pair, octant-major; a
            # stable sort by octant orders the target-sorted pairs by
            # bucket
            tsort = tgt_u[lo:hi]
            new = np.ones(B, dtype=bool)
            new[1:] = tsort[1:] != tsort[:-1]
            utgt = tsort[new]
            oct8 = poct[gsel]
            tpos = np.cumsum(new) - 1
            bucket = oct8.astype(np.int64) * utgt.size + tpos
            by_bucket = np.argsort(oct8, kind="stable")
            # GEMM order: stable sort by operator keeps targets ascending
            # inside each run
            perm = np.argsort(op_id[gsel], kind="stable")
            gsel = gsel[perm]
            ops_s = op_id[gsel]
            brk = np.flatnonzero(ops_s[1:] != ops_s[:-1]) + 1
            runs = np.concatenate([[0], brk, [B]])
            # the (buckets x pairs) sum: row b lists the pairs of bucket
            # b in target order, i.e. their positions after ``perm``
            idt = index_dtype(B, 8 * rows)
            pos = np.empty(B, dtype=idt)
            pos[perm] = np.arange(B, dtype=idt)
            indptr = np.zeros(8 * utgt.size + 1, dtype=idt)
            np.cumsum(np.bincount(bucket, minlength=8 * utgt.size), out=indptr[1:])
            red = csr(np.ones(B), pos[by_bucket], indptr, B)
            bgeom = levels = cnt_t = None
            if want_bounds:
                srcs, tg = fs[gsel], ft[gsel]
                asum = tree.radius[srcs] + tree.radius[tg]
                bgeom = theorem1_bound(1.0, asum, r_pair[gsel], p)
                levels = tree.level[srcs]
                cnt_t = np.minimum(be_all[gsel], thi) - np.maximum(
                    bs_all[gsel], tlo
                )
                mem += bgeom.nbytes + levels.nbytes + cnt_t.nbytes
            g = _FarGroup(
                p=p,
                cols=(poct[gsel].astype(idt) * rows + cols[gsel]).astype(idt),
                runs=runs.astype(np.int64),
                ops=ops_s[runs[:-1]],
                red=red,
                utgt=utgt,
                bgeom=bgeom,
                levels=levels,
                cnt_t=cnt_t,
            )
            if self._m2l_rebuild[g.ops].any():
                g.tpos = tpos[perm].astype(idt)
                mem += g.tpos.nbytes
            unit.groups.append(g)
            mem += sum(a.nbytes for a in (g.cols, g.runs, g.ops, utgt))
            mem += op_nbytes(red)

        # L2L push-down: edges from boxes holding local content down to
        # the unit's leaves (level order, so parents are final before
        # their children are filled)
        need = np.zeros(tree.n_nodes, dtype=bool)
        need[uleaves] = True
        for dlev in range(tree.height - 1, 0, -1):
            lo, hi = tree.level_ranges[dlev]
            ids = np.arange(lo, hi)
            need[tree.parent[ids[need[ids]]]] = True
        content = np.zeros(tree.n_nodes, dtype=bool)
        content[tgt_u] = True
        for dlev in range(1, tree.height):
            lo, hi = tree.level_ranges[dlev]
            ids = np.arange(lo, hi)
            chi = ids[need[ids] & content[tree.parent[ids]]]
            if chi.size:
                par = tree.parent[chi]
                octs = octants(ic[chi] - ic[par]).astype(np.int8)
                unit.push_par.append(par)
                unit.push_chi.append(chi)
                unit.push_oct.append(octs)
                unit.push_s.append(float(tree.half_size[lo]) * np.sqrt(3.0))
                content[chi] = True
                mem += par.nbytes + chi.nbytes + octs.nbytes

        # frozen L2P rows per leaf degree: one block row per target,
        # block column its leaf's (interleaved) local expansion
        lleaves = uleaves[content[uleaves]]
        pl = Ploc[lleaves]
        for pd in np.unique(pl):
            pd = int(pd)
            sel_l = lleaves[pl == pd]
            cnts = (tree.end[sel_l] - tree.start[sel_l]).astype(np.int64)
            cum = np.concatenate([[0], np.cumsum(cnts)])
            tidx = (
                np.arange(int(cum[-1]))
                - np.repeat(cum[:-1], cnts)
                + np.repeat(tree.start[sel_l], cnts)
            )
            idt = index_dtype(tidx.size, sel_l.size)
            pos = np.repeat(np.arange(sel_l.size, dtype=idt), cnts)
            R = regular_solid(tgt[tidx] - tree.center_exp[sel_l[pos]], pd)
            data, gdata = _row_blocks(R, pd, True, grad_wanted)
            il = interleave_index(ncoef(pd), ncoef(pd))
            indptr = np.arange(tidx.size + 1, dtype=idt)
            op = bsr(data[:, :, il], pos, indptr, sel_l.size)
            gop = None
            if gdata is not None:
                gop = bsr(gdata[:, :, il], pos, indptr, sel_l.size)
            mem += op_nbytes(op, gop) + tidx.nbytes + sel_l.nbytes
            unit.l2p.append(
                _L2PGroup(p=pd, tidx=tidx, leaves=sel_l, op=op, gop=gop)
            )
        self._units.append(unit)
        return mem

    def _predicted_work(self) -> dict:
        """The cut and its work per execute: near entries (and those
        inside dense blocks, and those the assembly copied), box pairs
        and M2L GEMM flops, plus the cost model's seconds when it chose
        the cut."""
        work = {
            "cut": self.cut_level,
            "near_entries": self.near_entries,
            "near_block_entries": self.near_block_entries,
            "near_mirror_entries": self.near_mirror_entries,
            "box_pairs": int(self.n_box_pairs),
            "m2l_flops": float(np.sum(_gemm_flops(self.pair_degrees))),
        }
        for c in self.cut_costs:
            if c["cut"] == self.cut_level:
                work["predicted_s"] = c["seconds"]
        return work

    # -- execution -----------------------------------------------------
    @property
    def _n_far_units(self) -> int:
        return len(self._units)

    @staticmethod
    def _operand(C: np.ndarray, nc: int) -> np.ndarray:
        """M2L reads interleaved multipoles: the leading ``nc``
        coefficients of a storage group's ``[Re C | Im C]`` rows as
        ``(rows, 2·nc)``, or ``(rows, k, 2·nc)`` for a batch."""
        idx = interleave_index(nc, C.shape[1] // 2)
        if C.ndim == 2:
            return C[:, idx]
        return np.take(C.transpose(0, 2, 1), idx, axis=2)

    def form_coefficients(self, q_sorted: np.ndarray) -> dict:
        """The per-degree P2M operands ``{p: (X, A)}``, with each
        ``X`` folded for M2L once per execute, for every far unit and
        executor: rows times ``h_s⁻ⁿ`` (exact powers of two), stacked in
        the eight octant reflections ``X ⊙ S_o`` — ``(8·rows, [k,]
        2·nc)``, a pair reading row ``o·rows + row``."""
        ctx = self._p2m_operands(q_sorted)
        level = self.tc.tree.level
        with span("plan.reflect", degrees=len(ctx)):
            for p, (X, A) in ctx.items():
                e = (level[self._operand_nodes[p]] - self._lat_exp).astype(np.int32)
                E = np.multiply.outer(e, interleaved_degrees(p))
                Xn = np.ldexp(X, E if X.ndim == 2 else E[:, None, :])
                S = octant_signs(p)
                F = np.empty((8,) + Xn.shape)
                np.multiply(Xn, S[:, None] if X.ndim == 2 else S[:, None, None], out=F)
                ctx[p] = (F.reshape((-1,) + Xn.shape[1:]), A)
        return ctx

    def _m2l_group(self, X: np.ndarray, g: _FarGroup) -> np.ndarray:
        """Lattice M2L of one group: gathered folded operand rows, one
        GEMM per frozen key run, summed into (octant, target) buckets,
        each octant's reflection undone and scaled by ``h_t⁻⁽ʲ⁺¹⁾``.
        Returns the ``(targets, [k,] 2·nc)`` interleaved locals of
        ``g.utgt``; runs past the frozen share contribute zero here and
        are applied by :meth:`_m2l_rebuilt`."""
        nc2 = 2 * ncoef(g.p)
        Xs = X[g.cols]
        kb = Xs.shape[1] if Xs.ndim == 3 else 1
        Xf = Xs.reshape(-1, nc2)
        Y = np.empty_like(Xf)
        runs = (g.runs * kb).tolist()
        for lo, hi, op in zip(runs[:-1], runs[1:], g.ops.tolist()):
            T = self._m2l_ops[op]
            if T is None:
                Y[lo:hi] = 0.0
            else:
                np.matmul(Xf[lo:hi], T[:nc2, :nc2], out=Y[lo:hi])
        Z = g.red @ Y.reshape(Xs.shape[0], -1)
        L = np.einsum("otc,oc->tc", Z.reshape(8, -1, nc2), octant_signs(g.p))
        L = L.reshape((-1,) + Xs.shape[1:])
        e = (self.tc.tree.level[g.utgt] - self._lat_exp).astype(np.int32)
        E = np.multiply.outer(e, interleaved_degrees(g.p) + 1)
        return np.ldexp(L, E if L.ndim == 2 else E[:, None, :])

    def _m2l_rebuilt(self, ctx, u: _FarUnit, L: np.ndarray) -> None:
        """Key runs of unit ``u`` past the frozen operator share, added
        into the box locals ``L``.  Direction-major over the unit's
        groups, each direction is built once per far unit and execute at
        the highest degree its runs need; a run scales its rows and
        products by its key's diagonals and unreflects each pair's
        product.  A run's pairs are target-sorted at compile, so one
        CSR product of ones sums them per target box in that fixed
        order; each sum is scaled by ``h_t⁻⁽ʲ⁺¹⁾`` and added to its box.
        Only one direction operator and one run are held at a time."""
        todo = []  # (direction, group, run)
        for g in u.groups:
            rb = np.flatnonzero(self._m2l_rebuild[g.ops])
            todo += [(int(self._m2l_kdir[g.ops[r]]), g, r) for r in rb.tolist()]
        todo.sort(key=lambda t: t[0])
        level = self.tc.tree.level
        for d, runs in itertools.groupby(todo, key=lambda t: t[0]):
            runs = list(runs)
            P = max(t[1].p for t in runs)
            D = m2l_operators(unpack_keys(self._m2l_dirs[d : d + 1]), P)[0]
            for _, g, r in runs:
                X = ctx[g.p][0]
                nc2 = 2 * ncoef(g.p)
                lo, hi, op = int(g.runs[r]), int(g.runs[r + 1]), int(g.ops[r])
                cols = g.cols[lo:hi]
                left, right = key_diagonals(self._m2l_kappa[op], g.p)
                Y = (X[cols] * left) @ D[:nc2, :nc2]
                Y *= right
                S = octant_signs(g.p)[cols // (X.shape[0] // 8)]
                t = g.tpos[lo:hi]
                first = np.flatnonzero(np.append(True, t[1:] != t[:-1]))
                tb = g.utgt[t[first]]
                e = (level[tb] - self._lat_exp).astype(np.int32)
                E = np.multiply.outer(e, interleaved_degrees(g.p) + 1)
                if Y.ndim == 3:
                    S, E = S[:, None], E[:, None]
                Y *= S
                n = hi - lo
                Z = csr_product(
                    np.append(first, n), np.arange(n), np.ones(n), n, Y.reshape(n, -1)
                )
                L[tb, ..., :nc2] += np.ldexp(Z.reshape((-1,) + Y.shape[1:]), E)

    def _far_unit_eval(self, ctx, u: _FarUnit, phi, grad, bound, stats):
        """Evaluate one far unit: lattice M2L into box locals, L2L
        push-down, frozen L2P.  Writes only to ``[u.tlo, u.thi)``."""
        n_nodes = self._n_nodes
        nc2max = 2 * ncoef(self._Pmax)
        first = next(iter(ctx.values()), None)
        kb = (
            first[0].shape[1]
            if first is not None and first[0].ndim == 3
            else None
        )
        mid = () if kb is None else (kb,)
        L = np.zeros((n_nodes,) + mid + (nc2max,))
        bsc = None
        if bound is not None:
            bsc = np.zeros((n_nodes,) + mid)
        pair_ctr = (
            REGISTRY.counter(
                "plan_m2l_pairs",
                "box-pair translations applied, by kernel backend",
                labelnames=("backend",),
            )
            if is_enabled()
            else None
        )
        with stopwatch("plan.m2l", pairs=u.n_pairs, groups=len(u.groups)) as sw_m2l:
            for g in u.groups:
                X, A = ctx[g.p]
                L[g.utgt, ..., : 2 * ncoef(g.p)] += self._m2l_group(X, g)
                if pair_ctr is not None:
                    pair_ctr.labels(backend="lattice").inc(g.cols.size)
                if bound is not None:
                    # a pair's folded row wraps onto its source row of A
                    Ab = A.take(g.cols, axis=0, mode="wrap")
                    b = Ab * (g.bgeom if kb is None else g.bgeom[:, None])
                    bo = g.red @ b
                    bsc[g.utgt] += bo.reshape((8, -1) + bo.shape[1:]).sum(axis=0)
                    if stats is not None:
                        bm = b if kb is None else b.sum(axis=1)
                        lsum = np.bincount(g.levels, weights=bm * g.cnt_t)
                        for Lv, s_ in enumerate(lsum):
                            if s_:
                                stats.bound_by_level[Lv] = (
                                    stats.bound_by_level.get(Lv, 0.0)
                                    + float(s_)
                                )
            self._m2l_rebuilt(ctx, u, L)
        with stopwatch("plan.l2l", levels=len(u.push_chi)) as sw_l2l:
            for par, chi, octs, s in zip(
                u.push_par, u.push_chi, u.push_oct, u.push_s
            ):
                fwd, inv = scales(self._Pmax, np.full(8, s), np.arange(8))
                Xp = L[par] * (fwd[octs] if kb is None else fwd[octs][:, None])
                Y = (Xp.reshape(-1, nc2max) @ self._l2l_op).reshape(Xp.shape)
                Y *= inv[octs] if kb is None else inv[octs][:, None]
                L[chi] += Y
                if bsc is not None:
                    bsc[chi] += bsc[par]
        with stopwatch("plan.l2p", groups=len(u.l2p)) as sw_l2p:
            for gl in u.l2p:
                X = L[gl.leaves, ..., : 2 * ncoef(gl.p)]
                if kb is not None:  # (leaves, 2·nc, k) block rows
                    X = X.transpose(0, 2, 1)
                X = X.reshape((-1,) + X.shape[2:])
                phi[gl.tidx] += gl.op @ X
                if grad is not None:
                    grad[gl.tidx] += (gl.gop @ X).reshape(-1, 3)
                if bound is not None:
                    bound[gl.tidx] += bsc[gl.leaves[gl.op.indices]]
        if stats is not None:
            for k, sw in (("m2l", sw_m2l), ("l2l", sw_l2l), ("l2p", sw_l2p)):
                stats.times[k] = stats.times.get(k, 0.0) + sw.elapsed

    def _far_field(self, ctx, phi, grad, bound, stats) -> None:
        with span("plan.far_field", units=len(self._units)):
            for u in self._units:
                self._far_unit_eval(ctx, u, phi, grad, bound, stats)

    def _far_unit_output(self, ctx, q_sorted, i):
        """Far unit ``i`` alone; its target range is disjoint from every
        other far unit's."""
        u = self._units[i]
        phi = np.zeros((self.n_targets,) + q_sorted.shape[1:])
        self._far_unit_eval(ctx, u, phi, None, None, None)
        return np.arange(u.tlo, u.thi), phi[u.tlo : u.thi]

    def _far_unit_direct(self, q_sorted, i):
        """Exact per-pair summation of far unit ``i`` (the supervisor's
        quarantine of last resort).  Each box pair is replaced by the
        exact contribution of the source box's particles to the target
        box's particles clipped to the unit's range — within the dual
        Theorem-1 bound of the M2L pipeline's value."""
        from ..direct import pairwise_potential

        tree = self.tc.tree
        u = self._units[i]
        vals = np.zeros((u.thi - u.tlo,) + q_sorted.shape[1:], dtype=np.float64)
        for g in u.groups:
            nodes = self._operand_nodes[g.p]
            srcs = nodes[g.cols % nodes.size]
            # pairs of each target box: its eight octant buckets
            tpos = np.repeat(
                np.arange(g.red.shape[0]) % g.utgt.size, np.diff(g.red.indptr)
            )
            order = g.red.indices[np.argsort(tpos, kind="stable")]
            ptr = np.searchsorted(np.sort(tpos), np.arange(g.utgt.size + 1))
            for t, tb in enumerate(g.utgt):
                ts = max(int(tree.start[tb]), u.tlo)
                te = min(int(tree.end[tb]), u.thi)
                if te <= ts:
                    continue
                blk = self.tgt[ts:te]
                acc = np.zeros((te - ts,) + q_sorted.shape[1:], dtype=np.float64)
                # two-sided MAC: source boxes never overlap their
                # target box, so no self-exclusion is needed
                for sb in srcs[order[ptr[t] : ptr[t + 1]]]:
                    s, e = int(tree.start[sb]), int(tree.end[sb])
                    acc += pairwise_potential(
                        blk,
                        tree.points[s:e],
                        q_sorted[s:e],
                        softening=self.tc.softening,
                    )
                vals[ts - u.tlo : te - u.tlo] += acc
        return np.arange(u.tlo, u.thi), vals

    # -- memory shedding -----------------------------------------------
    def _shed(self) -> int:
        """Drop near kernels; every near unit is then re-assembled on each
        application.  M2L index arrays, lattice operators and L2P rows
        are already minimal (L2P rows have no on-the-fly fallback) and
        stay resident."""
        return self._drop_near()

    def _refresh_spill_counts(self) -> None:
        self.n_far_precomputed = sum(len(u.groups) for u in self._units)
        self.n_far_spilled = 0
        self._refresh_near_counts()

    def describe(self) -> str:
        """One-line summary of the compiled structure."""
        how = "chosen" if self.cut_costs else "pinned"
        return (
            f"ClusterPlan(targets={self.n_targets}, "
            f"cut={self.cut_level} ({how}), "
            f"box_pairs={self.n_box_pairs}, units={len(self._units)}, "
            f"m2l_keys={len(self._m2l_ops)} over {len(self._m2l_dirs)} dirs "
            f"({int(self._m2l_rebuild.sum())} rebuilt per execute), "
            f"near={self.n_near_precomputed}+{self.n_near_spilled} spilled, "
            f"near_entries={self.near_entries}, "
            f"near_block_entries={self.near_block_entries}, "
            f"near_mirror_entries={self.near_mirror_entries}, "
            f"{self.memory_bytes / 1e6:.1f} MB, "
            f"compile {self.compile_time * 1e3:.1f} ms)"
        )
