r"""Compiled evaluation plans: geometry-frozen GEMM matvecs.

The treecode's evaluation cost per application splits into a
*geometry-dependent* part (spherical harmonics, Legendre recurrences,
power tables, near-field ``1/r`` kernels — functions of positions only)
and a *charge-dependent* part (multiplying those tables by the charges
and summing).  Iterative callers — the BEM matvec inside GMRES, charge
sweeps over a fixed cloud — re-derive the geometry part on every
application even though only the charges change.

A :class:`CompiledPlan` freezes a built :class:`~repro.core.treecode.Treecode`
plus cached :class:`~repro.core.treecode.InteractionLists` into dense
operators so each subsequent application is pure linear algebra:

* **P2M transfer operators** — for every node referenced by the far
  list, the geometry rows ``rho^n conj(Y_n^m)`` of its particle slice
  are materialized once; ``execute`` forms all multipole coefficients
  with one segmented GEMV (``q``-scale + ``add.reduceat``) per degree
  group, replacing the full harmonics recomputation of
  :meth:`~repro.core.treecode.Treecode.set_charges`.
* **Far-field row matrices** — per degree group, the evaluation rows
  ``w · Y_n^m(x) / r^{n+1}`` of every (cluster, target) pair are
  precomputed; a matvec reduces to a coefficient gather plus one
  row-wise contraction per chunk.  Rows are materialized under a
  configurable **memory budget**; chunks over budget *spill* to
  on-the-fly evaluation (still reusing the planned coefficients).
* **Near-field block kernels** — each leaf/target block's dense
  ``1/r`` matrix (self-exclusion and softening baked in) is assembled
  once into a block-CSR-style list; a matvec does one small GEMV per
  block.  Also budget-gated.
* **Bincount scatter** — per-target accumulation uses
  :func:`~repro.perf.scatter.scatter_add` instead of ``np.add.at``.

Results agree with the un-planned path to rounding (``<= 1e-12``),
including gradients, Theorem-1 bound accumulation and
:class:`~repro.core.treecode.TreecodeStats` interaction counts (which
are exactly equal — they are frozen at compile time).

Invalidation rules: a plan is tied to the identity of its
:class:`~repro.core.treecode.Treecode` (whose geometry is immutable
after construction) and to the lists/targets it was compiled from.
``set_charges`` on the treecode does **not** invalidate a plan —
``execute`` takes the charge vector explicitly and touches no treecode
state.  Any geometry change means a new ``Treecode`` and therefore a
new plan.

Fault-tolerance parity: planned coefficient formation passes through
the same ``treecode.coeffs`` injection site and NaN/Inf guard as the
upward pass, and the output potential runs the same final guards, so a
fault injected during plan execution degrades exactly like the
un-planned path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bounds import theorem1_bound
from ..core.degree import select_pair_degrees
from ..core.treecode import (
    _FAR_CHUNK,
    _NEAR_BUDGET,
    InteractionLists,
    Treecode,
    TreecodeResult,
    TreecodeStats,
    record_eval_metrics,
)
from ..multipole.expansion import m2p_rows, m_weights
from ..multipole.gradient import m2p_grad_rows
from ..multipole.harmonics import (
    irregular_solid,
    ncoef,
    regular_solid,
    solid_gradient,
    term_count,
)
from ..obs import journal
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.faults import maybe_corrupt
from ..robust.guards import check_bound_accounting, check_finite
from .scatter import scatter_add

__all__ = ["CompiledPlan", "compile_plan", "DEFAULT_MEMORY_BUDGET"]

#: Default cap on precomputed far-row + near-kernel bytes; beyond it,
#: chunks spill to on-the-fly evaluation.  P2M transfer operators are
#: always resident (they are what makes ``set_charges`` cheap) and are
#: counted in :attr:`CompiledPlan.memory_bytes` but not budget-gated.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024


def _p2m_geometry(rel: np.ndarray, p: int) -> np.ndarray:
    """Per-particle P2M rows ``rho^n conj(Y_n^m)`` — the geometry factor
    of :func:`repro.multipole.expansion.p2m_terms`."""
    return np.conj(regular_solid(rel, p).T)


@dataclass
class _P2MGroup:
    """Segmented P2M transfer operator for one degree group."""

    p: int
    nodes: np.ndarray  #: node ids, sorted (coefficient row order)
    pidx: np.ndarray  #: flattened particle indices (Morton-sorted space)
    seg: np.ndarray  #: ``add.reduceat`` segment starts, one per node
    G: np.ndarray  #: (rows, ncoef(p)) complex geometry rows


@dataclass
class _FarChunk:
    """One far-field evaluation chunk (<= ``_FAR_CHUNK`` pairs)."""

    p: int
    tids: np.ndarray  #: target index per pair
    rows: np.ndarray  #: coefficient row per pair within its storage group
    sP: np.ndarray  #: storage degree per pair (``ctx`` key; >= ``p``)
    nodes: np.ndarray  #: node id per pair (lazy eval + bound geometry)
    Rre: np.ndarray | None = None  #: w·Re(Y)/r^{n+1} rows (None = spilled)
    Rim: np.ndarray | None = None
    grad: tuple | None = None  #: :func:`_gradient_rows` (None = spilled)
    bgeom: np.ndarray | None = None  #: Theorem-1 factor at unit charge
    levels: np.ndarray | None = None  #: cluster tree level per pair


@dataclass
class _NearBlock:
    """One near-field dense block (<= ``_NEAR_BUDGET`` products)."""

    tids: np.ndarray  #: target indices of the block
    s: int  #: source slice start (Morton-sorted space)
    e: int  #: source slice end
    n_excluded: int  #: self-pairs excluded (frozen into the kernels)
    K: np.ndarray | None = None  #: (t, e-s) 1/r kernel (None = spilled)
    D3: np.ndarray | None = None  #: (t, e-s, 3) gradient kernel
    excl: np.ndarray | None = None  #: per-target excluded source (lazy)


def _weighted_rows(T: np.ndarray, p: int, dtype=np.float64) -> tuple:
    """``(Re, Im)`` of ``w · T[:ncoef(p)]`` as C-contiguous ``(t,
    ncoef(p))`` rows: the frozen factors of a real-part contraction
    against packed coefficients (``Re C·Rre - Im C·Rim``)."""
    nc = ncoef(p)
    w = m_weights(p)
    out = []
    for part in (T[:nc].real, T[:nc].imag):
        a = np.empty((T.shape[1], nc), dtype=dtype)
        np.multiply(part.T, w, out=a)
        out.append(a)
    return tuple(out)


def _gradient_rows(T: np.ndarray, p: int, regular: bool, dtype=np.float64) -> tuple:
    """Cartesian gradient rows ``(Gre, Gim)``, ``(3, t, ncoef(p))``
    each, with ``∂_a Φ = Gre[a]·Re C - Gim[a]·Im C`` (see
    :func:`~repro.multipole.harmonics.solid_gradient`)."""
    G = solid_gradient(T, p, regular).transpose(0, 2, 1)
    return (
        np.ascontiguousarray(G.real, dtype=dtype),
        np.ascontiguousarray(G.imag, dtype=dtype),
    )


def _far_chunk_geometry(rel: np.ndarray, p: int, want_grad: bool, dtype):
    """Row matrices for one far chunk in a single geometry pass.

    Returns ``(Rre, Rim, r, grad)`` — the geometry factors of
    :func:`~repro.multipole.expansion.m2p_rows` with the real-part
    weights folded in and (when ``want_grad``) the
    :func:`_gradient_rows`, in ``dtype``.  Potential and gradient rows
    come from one irregular solid table of degree ``p+1``.
    """
    T = irregular_solid(rel, p + 1 if want_grad else p)
    Rre, Rim = _weighted_rows(T, p, dtype)
    grad = _gradient_rows(T, p, False, dtype) if want_grad else None
    r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
    return Rre, Rim, r, grad


def _grad_from_rows(grad: tuple, C: np.ndarray) -> np.ndarray:
    """``(t, 3)`` gradients from :func:`_gradient_rows` and per-row
    coefficients ``C``."""
    Gre, Gim = grad
    return np.einsum("atc,tc->ta", Gre, C.real) - np.einsum(
        "atc,tc->ta", Gim, C.imag
    )


def _m2p_rows_any(C: np.ndarray, rel: np.ndarray, p: int) -> np.ndarray:
    """:func:`m2p_rows` accepting batched ``(pairs, k, nc)`` coefficients.

    Spilled chunks only — the geometry rows are recomputed per column
    here, so precomputed chunks (which contract the whole batch in one
    GEMM) remain the fast path for batches.
    """
    if C.ndim == 2:
        return m2p_rows(C, rel, p)
    return np.stack(
        [m2p_rows(C[:, j], rel, p) for j in range(C.shape[1])], axis=1
    )


def _build_p2m_group(tree, p: int, un: np.ndarray) -> tuple[_P2MGroup, int]:
    """Segmented P2M transfer operator over the unique nodes ``un`` of
    one degree group; returns the group and its materialized bytes.
    Shared between the target-major and cluster-cluster compilers."""
    nc = ncoef(p)
    counts = (tree.end[un] - tree.start[un]).astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(counts)])
    total = int(cum[-1])
    pidx = (
        np.arange(total)
        - np.repeat(cum[:-1], counts)
        + np.repeat(tree.start[un], counts)
    )
    owner = np.repeat(np.arange(un.size), counts)
    G = np.empty((total, nc), dtype=np.complex128)
    row_budget = max(1, 4_000_000 // max(nc, 1))
    centers = tree.center_exp[un]
    for glo in range(0, total, row_budget):
        ghi = min(glo + row_budget, total)
        rel = tree.points[pidx[glo:ghi]] - centers[owner[glo:ghi]]
        G[glo:ghi] = _p2m_geometry(rel, p)
    seg = cum[:-1]
    group = _P2MGroup(p=p, nodes=un, pidx=pidx, seg=seg, G=G)
    return group, G.nbytes + pidx.nbytes + seg.nbytes + un.nbytes


def _build_p2m_storage(tree, fn: np.ndarray, pdeg: np.ndarray):
    """P2M transfer operators keyed by each source node's *maximum*
    pair degree.

    A node referenced by pairs at several degrees (variable-order
    plans) gets one operator at the largest of them: the multipole
    coefficient packing is degree-major, so the coefficients a
    lower-degree pair needs are exactly the leading ``ncoef(p)``
    entries of the stored vector — consumers slice instead of holding a
    duplicate operator per degree.  Fixed-degree plans assign one
    degree per source node, so this reduces to the historical
    one-group-per-degree layout with bit-identical coefficients.

    Returns ``(Psrc, srow, groups, rowmap, bytes)`` where ``Psrc`` maps
    node id -> storage degree (-1 when the node sources no far pair)
    and ``srow`` maps node id -> its coefficient row within the
    ``Psrc[node]`` storage group.
    """
    Psrc = np.full(tree.n_nodes, -1, dtype=np.int64)
    np.maximum.at(Psrc, fn, pdeg)
    srow = np.full(tree.n_nodes, -1, dtype=np.int64)
    groups, rowmap, mem = [], {}, 0
    for P in np.unique(Psrc[fn]):
        un = np.nonzero(Psrc == P)[0]
        group, gbytes = _build_p2m_group(tree, int(P), un)
        groups.append(group)
        rowmap[int(P)] = un
        srow[un] = np.arange(un.size)
        mem += gbytes
    return Psrc, srow, groups, rowmap, mem


def _storage_degrees(sP: np.ndarray) -> np.ndarray:
    """Distinct storage degrees of a pair batch — a single one in
    fixed-degree plans, found there without ``np.unique``'s hashing."""
    return sP[:1] if sP.min() == sP.max() else np.unique(sP)


def _gather_coeffs(ctx, sP: np.ndarray, rows: np.ndarray, nc: int) -> np.ndarray:
    """Multipole coefficients for a pair batch, truncated to ``nc``
    entries, gathered from per-storage-degree coefficient tables.

    Coefficient tables are ``(nodes, nc)`` for a single charge vector or
    ``(nodes, k, nc)`` for a batch; the gather preserves the batch axis.
    """
    uP = _storage_degrees(sP)
    if uP.size == 1:
        return ctx[int(uP[0])][0][rows, ..., :nc]
    tbl = ctx[int(uP[0])][0]
    C = np.empty((rows.size,) + tbl.shape[1:-1] + (nc,), dtype=np.complex128)
    for P in uP:
        m = sP == P
        C[m] = ctx[int(P)][0][rows[m], ..., :nc]
    return C


def _gather_abs(ctx, sP: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Absolute cluster charges for a pair batch (bounds accounting);
    ``(pairs,)`` single-vector or ``(pairs, k)`` batched."""
    uP = _storage_degrees(sP)
    if uP.size == 1:
        return ctx[int(uP[0])][1][rows]
    tbl = ctx[int(uP[0])][1]
    A = np.empty((rows.size,) + tbl.shape[1:], dtype=np.float64)
    for P in uP:
        m = sP == P
        A[m] = ctx[int(P)][1][rows[m]]
    return A


def _near_kernel(tgt_blk, src, excl, softening):
    """Dense ``1/sqrt(r²+ε²)`` block with self-exclusion baked in —
    the frozen matrix behind :func:`repro.direct.pairwise_potential`."""
    d = tgt_blk[:, None, :] - src[None, :, :]
    r2 = np.einsum("tsi,tsi->ts", d, d) + softening * softening
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(r2)
    inv[r2 == 0.0] = 0.0
    if excl is not None:
        rows = np.nonzero(excl >= 0)[0]
        inv[rows, excl[rows]] = 0.0
    return inv, d, r2


class CompiledPlan:
    """Frozen geometry operators for repeated charge applications.

    Build with :func:`compile_plan` or
    :meth:`repro.core.treecode.Treecode.compile_plan`; apply with
    :meth:`execute`.  The plan holds *no* charge state: ``execute`` is a
    pure function of the charge vector, so one plan serves any number of
    interleaved matvecs (GMRES iterations, sweep points) on the same
    geometry.

    Attributes
    ----------
    memory_bytes:
        Total bytes of materialized operators (P2M transfer rows,
        far-field row matrices, near-field kernels, index arrays).
    n_far_precomputed, n_far_spilled:
        Far chunks materialized vs. spilled to on-the-fly evaluation
        under the memory budget.
    n_near_precomputed, n_near_spilled:
        Same split for near-field blocks.
    compile_time:
        Wall seconds spent compiling.
    """

    def __init__(
        self,
        tc: Treecode,
        lists: InteractionLists,
        tgt: np.ndarray,
        self_targets: bool = False,
        compute: str = "potential",
        accumulate_bounds: bool = False,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        rows_dtype=np.float64,
        tol: float | None = None,
        translation_backend: str = "auto",
    ) -> None:
        if compute not in ("potential", "both"):
            raise ValueError(f"compute must be 'potential' or 'both', got {compute!r}")
        if translation_backend not in ("dense", "rotation", "auto"):
            raise ValueError(
                "translation_backend must be 'dense', 'rotation' or 'auto', "
                f"got {translation_backend!r}"
            )
        rows_dtype = np.dtype(rows_dtype)
        if rows_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"rows_dtype must be float64 or float32, got {rows_dtype}"
            )
        if tol is not None and tol <= 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        tgt = np.asarray(tgt, dtype=np.float64)
        if tgt.ndim != 2 or tgt.shape[1] != 3:
            raise ValueError(f"targets must have shape (t, 3), got {tgt.shape}")
        self.tc = tc
        self.tgt = tgt
        self.self_targets = bool(self_targets)
        self.compute = compute
        self.accumulate_bounds = bool(accumulate_bounds)
        self.memory_budget = int(memory_budget)
        self.rows_dtype = rows_dtype
        self.tol = None if tol is None else float(tol)
        #: translation kernel selection ("dense", "rotation" or "auto");
        #: consumed by the cluster plan's M2L pipeline — the target-major
        #: plan stores no translations, so it only records the knob
        self.translation_backend = translation_backend
        #: degree cap of per-pair selection — the VariableDegree policy's
        #: cap when that policy drives the plan; other policies' p_max
        #: attributes cap *their own* schedules, not pair selection
        from ..core.degree import VariableDegree

        self._tol_p_max = (
            int(tc.degree_policy.p_max)
            if isinstance(tc.degree_policy, VariableDegree)
            else 60
        )
        #: compile-time max per-target Theorem-1 ledger (tol plans only;
        #: anchored at the charges the treecode held at compile time)
        self.predicted_ledger_max: float | None = None if tol is None else 0.0
        with stopwatch("plan.compile", targets=int(tgt.shape[0])) as sw:
            self._compile(lists)
        self.compile_time = sw.elapsed
        degree_hist = dict(self._static_stats.interactions_by_degree)
        if is_enabled():
            REGISTRY.counter("plan_compiles", "evaluation plans compiled").inc()
            REGISTRY.gauge(
                "plan_memory_bytes", "materialized bytes of the most recent plan"
            ).set(self.memory_bytes)
            if degree_hist:
                buckets = REGISTRY.counter(
                    "plan_degree_bucket_pairs",
                    "far interactions per selected degree bucket",
                    labelnames=("degree",),
                )
                for pd in sorted(degree_hist):
                    buckets.labels(degree=pd).inc(degree_hist[pd])
            if self.predicted_ledger_max is not None:
                REGISTRY.gauge(
                    "plan_predicted_ledger_max",
                    "compile-time max per-target Theorem-1 ledger of the "
                    "most recent tol-compiled plan",
                ).set(self.predicted_ledger_max)
        journal.emit(
            "plan_compile",
            mode="cluster" if type(self).__name__ == "ClusterPlan" else "target",
            targets=int(tgt.shape[0]),
            memory_bytes=int(self.memory_bytes),
            compile_s=float(self.compile_time),
            units=int(self.n_units),
            far_spilled=int(self.n_far_spilled),
            tol=self.tol,
            predicted_ledger_max=self.predicted_ledger_max,
            translation_backend=self.translation_backend,
            degree_hist={str(k): int(v) for k, v in sorted(degree_hist.items())},
        )

    # -- compilation ---------------------------------------------------
    def _compile(self, lists: InteractionLists) -> None:
        tc, tree, tgt = self.tc, self.tc.tree, self.tgt
        grad_wanted = self.compute == "both"
        mem = 0
        budget_used = 0

        # ---- far field: degree grouping identical to evaluate_lists ----
        fn, ft = lists.far_nodes, lists.far_targets
        self._p2m_groups: list[_P2MGroup] = []
        self._rowmap: dict[int, np.ndarray] = {}
        self._far_chunks: list[_FarChunk] = []
        stats = TreecodeStats(n_targets=int(tgt.shape[0]))
        #: per-far-pair degree in traversal emission order (for
        #: degree-aware work profiling, e.g. profile_blocks)
        self.pair_degrees = np.empty(0, dtype=np.int64)
        if fn.size:
            if self.tol is None:
                pdeg = tc.p_eval[fn]
            else:
                # Variable order: split the aggregate budget tol evenly
                # over each target's far pairs, then give every pair the
                # minimal degree whose Theorem-1 bound meets its share —
                # the per-target ledger sums to <= cnt * (tol/cnt) = tol.
                cnt = np.bincount(ft, minlength=int(tgt.shape[0]))
                budgets = self.tol / cnt[ft]
                rel_all = tgt[ft] - tree.center_exp[fn]
                r_all = np.sqrt(np.einsum("ij,ij->i", rel_all, rel_all))
                A_all = tree.abs_charge[fn]
                pdeg = select_pair_degrees(
                    A_all,
                    tree.radius[fn],
                    r_all,
                    budgets,
                    p_max=self._tol_p_max,
                    nodes=fn,
                )
                bnd = theorem1_bound(A_all, tree.radius[fn], r_all, pdeg)
                pred = np.zeros(int(tgt.shape[0]))
                scatter_add(pred, ft, bnd)
                self.predicted_ledger_max = float(pred.max())
            self.pair_degrees = np.asarray(pdeg, dtype=np.int64)
            # one P2M operator per source node at its max pair degree;
            # lower-degree pairs slice the leading coefficients
            Psrc, srow, self._p2m_groups, self._rowmap, p2m_mem = (
                _build_p2m_storage(tree, fn, pdeg)
            )
            mem += p2m_mem
            order = np.argsort(pdeg, kind="stable")
            fn, ft, pdeg = fn[order], ft[order], pdeg[order]
            uniq, starts = np.unique(pdeg, return_index=True)
            bnds = list(starts) + [fn.size]
            for u, (lo, hi) in zip(uniq, zip(bnds[:-1], bnds[1:])):
                p = int(u)
                nodes_g, tids_g = fn[lo:hi], ft[lo:hi]
                npairs = hi - lo
                stats.n_pc_interactions += npairs
                stats.n_terms += npairs * term_count(p)
                stats.interactions_by_degree[p] = (
                    stats.interactions_by_degree.get(p, 0) + npairs
                )
                rows_g = srow[nodes_g]
                sP_g = Psrc[nodes_g]
                nc = ncoef(p)

                fsize = self.rows_dtype.itemsize
                for clo in range(0, npairs, _FAR_CHUNK):
                    chi = min(clo + _FAR_CHUNK, npairs)
                    k = chi - clo
                    tids_c = tids_g[clo:chi]
                    rows_c = rows_g[clo:chi]
                    nodes_c = nodes_g[clo:chi]
                    mem += tids_c.nbytes + rows_c.nbytes + nodes_c.nbytes
                    cost = 2 * k * nc * fsize
                    if grad_wanted:
                        cost += 3 * k * nc * 2 * fsize
                    if self.accumulate_bounds:
                        cost += k * 8 + k * tree.level.dtype.itemsize
                    ch = _FarChunk(
                        p=p, tids=tids_c, rows=rows_c, sP=sP_g[clo:chi],
                        nodes=nodes_c,
                    )
                    if budget_used + cost <= self.memory_budget:
                        rel = tgt[tids_c] - tree.center_exp[nodes_c]
                        ch.Rre, ch.Rim, r, ch.grad = _far_chunk_geometry(
                            rel, p, grad_wanted, self.rows_dtype
                        )
                        if self.accumulate_bounds:
                            ch.bgeom = theorem1_bound(
                                1.0, tree.radius[nodes_c], r, p
                            )
                            ch.levels = tree.level[nodes_c]
                        budget_used += cost
                        mem += cost
                    self._far_chunks.append(ch)
            lev = tree.level[fn]
            cnt = np.bincount(lev)
            for L, c in enumerate(cnt):
                if c:
                    stats.interactions_by_level[L] = int(c)

        # ---- near field: dense blocks per leaf -------------------------
        self._near_blocks: list[_NearBlock] = []
        for leaf, tids in lists.near:
            s, e = int(tree.start[leaf]), int(tree.end[leaf])
            cnt = e - s
            if cnt == 0:
                continue
            step = max(1, _NEAR_BUDGET // cnt)
            src = tree.points[s:e]
            for lo in range(0, tids.size, step):
                blk = tids[lo : lo + step]
                if self.self_targets:
                    excl = np.where((blk >= s) & (blk < e), blk - s, -1)
                    n_excl = int(np.count_nonzero(excl >= 0))
                else:
                    excl = None
                    n_excl = 0
                stats.n_pp_pairs += blk.size * cnt - n_excl
                nb = _NearBlock(tids=blk, s=s, e=e, n_excluded=n_excl, excl=excl)
                mem += blk.nbytes + (excl.nbytes if excl is not None else 0)
                cost = blk.size * cnt * 8
                if grad_wanted:
                    cost += blk.size * cnt * 3 * 8
                if budget_used + cost <= self.memory_budget:
                    K, d, r2 = _near_kernel(tgt[blk], src, excl, tc.softening)
                    nb.K = K
                    if grad_wanted:
                        with np.errstate(divide="ignore"):
                            wg = 1.0 / (r2 * np.sqrt(r2))
                        wg[r2 == 0.0] = 0.0
                        if excl is not None:
                            rws = np.nonzero(excl >= 0)[0]
                            wg[rws, excl[rws]] = 0.0
                        nb.D3 = wg[..., None] * d
                    budget_used += cost
                    mem += cost
                self._near_blocks.append(nb)

        self._static_stats = stats
        self.memory_bytes = int(mem)
        self.n_far_precomputed = sum(1 for c in self._far_chunks if c.Rre is not None)
        self.n_far_spilled = len(self._far_chunks) - self.n_far_precomputed
        self.n_near_precomputed = sum(1 for b in self._near_blocks if b.K is not None)
        self.n_near_spilled = len(self._near_blocks) - self.n_near_precomputed

    # -- execution -----------------------------------------------------
    @property
    def n_targets(self) -> int:
        return int(self.tgt.shape[0])

    @property
    def n_units(self) -> int:
        """Independent work units (far chunks + near blocks) — the
        granularity the parallel executor schedules at."""
        return len(self._far_chunks) + len(self._near_blocks)

    def _clone_stats(self) -> TreecodeStats:
        s = self._static_stats
        return TreecodeStats(
            n_targets=s.n_targets,
            n_pc_interactions=s.n_pc_interactions,
            n_pp_pairs=s.n_pp_pairs,
            n_terms=s.n_terms,
            interactions_by_degree=dict(s.interactions_by_degree),
            interactions_by_level=dict(s.interactions_by_level),
        )

    def sort_charges(self, charges: np.ndarray) -> np.ndarray:
        """Validate a charge array and return it in Morton order.

        Accepts a single ``(n,)`` vector or an ``(n, k)`` batch of
        stacked charge vectors (one matvec per column).  An ``(n, 1)``
        batch is squeezed onto the single-vector path — every downstream
        kernel then runs exactly the historical 1-D code, which is what
        makes ``k=1`` batched execution bitwise-identical; entry points
        restore the column axis on their outputs.
        """
        charges = np.asarray(charges, dtype=np.float64)
        n = self.tc.tree.n_particles
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must have shape ({n},) or ({n}, k), got {charges.shape}"
            )
        if charges.ndim == 2:
            if charges.shape[1] == 0:
                raise ValueError("charge batch must have at least one column")
            if charges.shape[1] == 1:
                charges = charges[:, 0]
        return charges[self.tc.tree.perm]

    def form_coefficients(self, q_sorted: np.ndarray) -> dict:
        """Charge-dependent stage 1: multipole coefficients (and, when
        bounds are compiled, absolute cluster charges) per degree group,
        via segmented GEMVs over the frozen P2M rows.

        Passes the ``treecode.coeffs`` fault-injection site and NaN/Inf
        guard, exactly like the un-planned upward pass.
        """
        ctx: dict = {}
        with span("plan.p2m", groups=len(self._p2m_groups)):
            for g in self._p2m_groups:
                qg = q_sorted[g.pidx]
                if qg.ndim == 1:
                    C = np.add.reduceat(qg[:, None] * g.G, g.seg, axis=0)
                else:  # (rows, k) batch: one segmented transfer per group
                    C = np.add.reduceat(
                        qg[:, :, None] * g.G[:, None, :], g.seg, axis=0
                    )
                C = maybe_corrupt("treecode.coeffs", C)
                check_finite(
                    "treecode.coeffs", C, context="planned multipole coefficients"
                )
                A = (
                    np.add.reduceat(np.abs(qg), g.seg)
                    if self.accumulate_bounds
                    else None
                )
                ctx[g.p] = (C, A)
        return ctx

    def _far_unit(self, ctx, i, phi, grad, bound, stats):
        ch = self._far_chunks[i]
        C = _gather_coeffs(ctx, ch.sP, ch.rows, ncoef(ch.p))
        tree = self.tc.tree
        batched = C.ndim == 3
        if ch.Rre is not None:
            if batched:
                vals = np.einsum("tc,tkc->tk", ch.Rre, C.real) - np.einsum(
                    "tc,tkc->tk", ch.Rim, C.imag
                )
            else:
                vals = np.einsum("tc,tc->t", ch.Rre, C.real) - np.einsum(
                    "tc,tc->t", ch.Rim, C.imag
                )
            rel = None
        else:  # spilled: evaluate geometry on the fly (planned coeffs)
            rel = self.tgt[ch.tids] - tree.center_exp[ch.nodes]
            vals = _m2p_rows_any(C, rel, ch.p)
        scatter_add(phi, ch.tids, vals)
        if grad is not None:
            if ch.grad is not None:
                gv = _grad_from_rows(ch.grad, C)
            else:
                gv = m2p_grad_rows(C, rel, ch.p)
            scatter_add(grad, ch.tids, gv)
        if bound is not None:
            Anode = _gather_abs(ctx, ch.sP, ch.rows)
            if ch.bgeom is not None:
                b = Anode * (ch.bgeom[:, None] if batched else ch.bgeom)
                levels = ch.levels
            elif batched:
                r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
                bg = theorem1_bound(1.0, tree.radius[ch.nodes], r, ch.p)
                b = Anode * bg[:, None]
                levels = tree.level[ch.nodes]
            else:
                r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
                b = theorem1_bound(Anode, tree.radius[ch.nodes], r, ch.p)
                levels = tree.level[ch.nodes]
            scatter_add(bound, ch.tids, b)
            lsum = np.bincount(levels, weights=b.sum(axis=1) if batched else b)
            for L, s_ in enumerate(lsum):
                if s_:
                    stats.bound_by_level[L] = stats.bound_by_level.get(L, 0.0) + float(
                        s_
                    )

    def _near_unit(self, q_sorted, i, phi, grad):
        nb = self._near_blocks[i]
        qs = q_sorted[nb.s : nb.e]
        if nb.K is not None:
            phi[nb.tids] += nb.K @ qs
            if grad is not None:
                grad[nb.tids] += -np.einsum("tsi,s->ti", nb.D3, qs)
        else:  # spilled: dense block on the fly
            from ..direct import pairwise_potential
            from ..core.treecode import _near_gradient

            src = self.tc.tree.points[nb.s : nb.e]
            phi[nb.tids] += pairwise_potential(
                self.tgt[nb.tids], src, qs, exclude=nb.excl,
                softening=self.tc.softening,
            )
            if grad is not None:
                grad[nb.tids] += _near_gradient(
                    self.tgt[nb.tids], src, qs, nb.excl,
                    softening=self.tc.softening,
                )

    def execute_unit(self, ctx, q_sorted, i):
        """Evaluate one work unit in isolation; returns the potential
        contribution as ``(target_indices, values)``.  Used by the
        parallel executor, which schedules units across threads and
        merges in deterministic unit order."""
        nf = len(self._far_chunks)
        if i < nf:
            ch = self._far_chunks[i]
            C = _gather_coeffs(ctx, ch.sP, ch.rows, ncoef(ch.p))
            if ch.Rre is not None:
                if C.ndim == 3:
                    vals = np.einsum("tc,tkc->tk", ch.Rre, C.real) - np.einsum(
                        "tc,tkc->tk", ch.Rim, C.imag
                    )
                else:
                    vals = np.einsum("tc,tc->t", ch.Rre, C.real) - np.einsum(
                        "tc,tc->t", ch.Rim, C.imag
                    )
            else:
                rel = self.tgt[ch.tids] - self.tc.tree.center_exp[ch.nodes]
                vals = _m2p_rows_any(C, rel, ch.p)
            return ch.tids, vals
        nb = self._near_blocks[i - nf]
        qs = q_sorted[nb.s : nb.e]
        if nb.K is not None:
            return nb.tids, nb.K @ qs
        from ..direct import pairwise_potential

        vals = pairwise_potential(
            self.tgt[nb.tids],
            self.tc.tree.points[nb.s : nb.e],
            qs,
            exclude=nb.excl,
            softening=self.tc.softening,
        )
        return nb.tids, vals

    def execute_unit_direct(self, q_sorted, i):
        """Evaluate one work unit by exact per-pair summation.

        The supervisor's quarantine of last resort: no multipole
        machinery, no precomputed operators — each (cluster, target)
        pair of a far chunk is replaced by the exact contribution of
        the cluster's particles (within the Theorem-1 bound of the
        approximated value), and near blocks run the dense kernel from
        raw coordinates.  Returns ``(target_indices, values)``.
        """
        from ..direct import pairwise_potential

        tree = self.tc.tree
        nf = len(self._far_chunks)
        if i < nf:
            ch = self._far_chunks[i]
            vals = np.zeros((ch.tids.size,) + q_sorted.shape[1:], dtype=np.float64)
            for node in np.unique(ch.nodes):
                m = ch.nodes == node
                s, e = int(tree.start[node]), int(tree.end[node])
                # MAC-separated clusters never contain their targets,
                # so no exclusion is needed even for self-targets
                vals[m] = pairwise_potential(
                    self.tgt[ch.tids[m]],
                    tree.points[s:e],
                    q_sorted[s:e],
                    softening=self.tc.softening,
                )
            return ch.tids, vals
        nb = self._near_blocks[i - nf]
        vals = pairwise_potential(
            self.tgt[nb.tids],
            tree.points[nb.s : nb.e],
            q_sorted[nb.s : nb.e],
            exclude=nb.excl,
            softening=self.tc.softening,
        )
        return nb.tids, vals

    # -- memory shedding -----------------------------------------------
    #: 0 = full precision, 1 = float32 operators, 2 = dropped to spill
    _shed_stage = 0

    def _shed_stage1(self) -> int:
        """Halve operator memory: far rows and near kernels to float32
        (results degrade to ~1e-6 relative; bounds/stats unchanged)."""
        freed = 0
        for ch in self._far_chunks:
            if ch.Rre is not None and ch.Rre.dtype == np.float64:
                freed += (ch.Rre.nbytes + ch.Rim.nbytes) // 2
                ch.Rre = ch.Rre.astype(np.float32)
                ch.Rim = ch.Rim.astype(np.float32)
            if ch.grad is not None and ch.grad[0].dtype == np.float64:
                freed += sum(g.nbytes for g in ch.grad) // 2
                ch.grad = tuple(g.astype(np.float32) for g in ch.grad)
        for nb in self._near_blocks:
            if nb.K is not None and nb.K.dtype == np.float64:
                freed += nb.K.nbytes // 2
                nb.K = nb.K.astype(np.float32)
            if nb.D3 is not None and nb.D3.dtype == np.float64:
                freed += nb.D3.nbytes // 2
                nb.D3 = nb.D3.astype(np.float32)
        return freed

    def _shed_stage2(self) -> int:
        """Drop all precomputed operators to the spilled on-the-fly
        paths (exact float64 recompute — full accuracy returns, at
        un-planned evaluation speed)."""
        freed = 0
        for ch in self._far_chunks:
            if ch.Rre is not None:
                freed += ch.Rre.nbytes + ch.Rim.nbytes
                ch.Rre = ch.Rim = None
            if ch.grad is not None:
                freed += sum(g.nbytes for g in ch.grad)
                ch.grad = None
        for nb in self._near_blocks:
            if nb.K is not None:
                freed += nb.K.nbytes
                nb.K = None
            if nb.D3 is not None:
                freed += nb.D3.nbytes
                nb.D3 = None
        return freed

    def shed_memory(self) -> int:
        """Release plan memory under RSS pressure; returns bytes freed.

        Stage 1 casts precomputed operators to float32; stage 2 drops
        them entirely, falling back to the (exact) spilled evaluation
        paths.  Returns 0 once nothing sheddable remains — the
        supervisor's cue to trip the memory breaker instead.
        """
        freed = 0
        while freed == 0 and self._shed_stage < 2:
            stage = self._shed_stage
            freed = self._shed_stage1() if stage == 0 else self._shed_stage2()
            self._shed_stage = stage + 1
        if freed:
            self.memory_bytes = int(self.memory_bytes - freed)
            self._refresh_spill_counts()
            if is_enabled():
                REGISTRY.counter("plan_sheds", "plan memory-shed stages run").inc()
                REGISTRY.gauge(
                    "plan_memory_bytes", "materialized bytes of the most recent plan"
                ).set(self.memory_bytes)
            journal.emit(
                "plan_shed",
                stage=int(self._shed_stage),
                freed_bytes=int(freed),
                memory_bytes=int(self.memory_bytes),
            )
        return freed

    def _refresh_spill_counts(self) -> None:
        self.n_far_precomputed = sum(
            1 for c in self._far_chunks if c.Rre is not None
        )
        self.n_far_spilled = len(self._far_chunks) - self.n_far_precomputed
        self.n_near_precomputed = sum(
            1 for b in self._near_blocks if b.K is not None
        )
        self.n_near_spilled = len(self._near_blocks) - self.n_near_precomputed

    def finalize(self, phi, grad=None, bound=None, stats=None):
        """Common epilogue: un-sort self-target results back to input
        order and run the output guards."""
        if self.self_targets:
            inv = self.tc.tree.perm
            out = np.empty_like(phi)
            out[inv] = phi
            phi = out
            if grad is not None:
                og = np.empty_like(grad)
                og[inv] = grad
                grad = og
            if bound is not None:
                ob = np.empty_like(bound)
                ob[inv] = bound
                bound = ob
        check_finite("treecode.potential", phi, context="planned potential")
        if bound is not None and stats is not None:
            check_bound_accounting("treecode.bounds", bound, stats.bound_by_level)
        return phi, grad, bound

    def execute(self, charges: np.ndarray) -> TreecodeResult:
        """Apply the frozen operators to a charge vector.

        Equivalent to ``tc.set_charges(charges)`` followed by
        ``tc.evaluate_lists(...)`` with the compiled configuration, but
        without touching any treecode state; agreement is to rounding
        (``<= 1e-12``).

        ``charges`` may be an ``(n, k)`` batch of stacked charge
        vectors; every kernel then contracts the whole batch at once
        (one GEMM per operator instead of ``k`` GEMVs), and the result's
        ``potential``/``error_bound`` gain a trailing batch axis with
        column ``j`` the evaluation of ``charges[:, j]``.  A ``k=1``
        batch runs the single-vector kernels bitwise-identically and
        only reshapes the outputs.  Gradients (``compute="both"``) are
        single-vector only.
        """
        charges = np.asarray(charges, dtype=np.float64)
        batch = charges.ndim == 2
        if batch and self.compute == "both":
            raise ValueError(
                "batched charges support compute='potential' plans only"
            )
        if batch and charges.shape[1] == 1:
            res = self.execute(charges[:, 0])
            return TreecodeResult(
                potential=res.potential[:, None],
                gradient=res.gradient,
                error_bound=(
                    None if res.error_bound is None else res.error_bound[:, None]
                ),
                stats=res.stats,
            )
        q_sorted = self.sort_charges(charges)
        obs_on = is_enabled()
        nt = self.n_targets
        shape = (nt, charges.shape[1]) if batch else (nt,)
        with span("plan.execute", targets=nt, units=self.n_units):
            sw = stopwatch("plan.eval").__enter__()
            phi = np.zeros(shape, dtype=np.float64)
            grad = (
                np.zeros((nt, 3), dtype=np.float64)
                if self.compute == "both"
                else None
            )
            bound = (
                np.zeros(shape, dtype=np.float64) if self.accumulate_bounds else None
            )
            stats = self._clone_stats()
            ctx = self.form_coefficients(q_sorted)
            with span("plan.far_field", chunks=len(self._far_chunks)):
                for i in range(len(self._far_chunks)):
                    self._far_unit(ctx, i, phi, grad, bound, stats)
            with span("plan.near_field", blocks=len(self._near_blocks)):
                for i in range(len(self._near_blocks)):
                    self._near_unit(q_sorted, i, phi, grad)
            sw.__exit__(None, None, None)
            stats.eval_time = sw.elapsed
            if obs_on:
                REGISTRY.counter("plan_executes", "compiled-plan applications").inc()
                record_eval_metrics(stats)
            phi, grad, bound = self.finalize(phi, grad, bound, stats)
        return TreecodeResult(
            potential=phi, gradient=grad, error_bound=bound, stats=stats
        )

    def describe(self) -> str:
        """One-line summary of the compiled structure."""
        return (
            f"CompiledPlan(targets={self.n_targets}, "
            f"far={self.n_far_precomputed}+{self.n_far_spilled} spilled, "
            f"near={self.n_near_precomputed}+{self.n_near_spilled} spilled, "
            f"{self.memory_bytes / 1e6:.1f} MB, "
            f"compile {self.compile_time * 1e3:.1f} ms)"
        )


def compile_plan(
    tc: Treecode,
    lists: InteractionLists | None,
    tgt: np.ndarray,
    self_targets: bool = False,
    compute: str = "potential",
    accumulate_bounds: bool = False,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    mode: str = "target",
    rows_dtype=np.float64,
    n_units: int | None = None,
    tol: float | None = None,
    translation_backend: str = "auto",
    cache_dir=None,
) -> CompiledPlan:
    """Freeze a treecode into a compiled evaluation plan.

    ``mode="target"`` builds the target-major :class:`CompiledPlan` from
    precomputed interaction lists (per-pair far rows).
    ``mode="cluster"`` builds a
    :class:`~repro.perf.cluster.ClusterPlan` from a dual-tree traversal
    (box-box M2L into per-leaf local expansions) — ``lists`` is ignored
    and the targets must be the treecode's own points.

    With ``tol`` set, the compiler selects a per-interaction expansion
    degree — the minimal one whose Theorem-1 (or dual-MAC) bound keeps
    each target's aggregate error ledger at or below ``tol`` — and
    buckets interactions by degree so every kernel stays a GEMM.
    ``tol=None`` reproduces today's fixed-policy plans exactly.

    ``cache_dir`` (or the ``REPRO_PLAN_CACHE`` environment variable
    when it is ``None``; pass ``""`` to force-disable) enables the
    persistent plan store (:mod:`repro.perf.store`): if a plan with the
    same content digest — points, charges, policy, tolerance, backend,
    dtype, plan configuration, library version — exists on disk it is
    restored by zero-copy ``mmap`` instead of compiled; otherwise the
    freshly compiled plan is written back.  Corrupt or stale files
    fall back to a fresh compile.

    Equivalent to :meth:`repro.core.treecode.Treecode.compile_plan`.
    """
    from .store import cached_plan, plan_digest, resolve_cache_dir

    cache = resolve_cache_dir(cache_dir)
    if cache is not None:
        digest = plan_digest(
            tc,
            tgt,
            self_targets,
            compute,
            accumulate_bounds,
            memory_budget,
            mode,
            rows_dtype,
            n_units,
            tol,
            translation_backend,
        )
        return cached_plan(
            cache,
            digest,
            lambda: compile_plan(
                tc,
                lists,
                tgt,
                self_targets=self_targets,
                compute=compute,
                accumulate_bounds=accumulate_bounds,
                memory_budget=memory_budget,
                mode=mode,
                rows_dtype=rows_dtype,
                n_units=n_units,
                tol=tol,
                translation_backend=translation_backend,
                cache_dir="",
            ),
        )
    if mode == "cluster":
        from .cluster import ClusterPlan

        return ClusterPlan(
            tc,
            tgt,
            self_targets=self_targets,
            compute=compute,
            accumulate_bounds=accumulate_bounds,
            memory_budget=memory_budget,
            rows_dtype=rows_dtype,
            n_units=n_units,
            tol=tol,
            translation_backend=translation_backend,
        )
    if mode != "target":
        raise ValueError(f"mode must be 'target' or 'cluster', got {mode!r}")
    if lists is None:
        raise ValueError("mode='target' requires interaction lists")
    return CompiledPlan(
        tc,
        lists,
        tgt,
        self_targets=self_targets,
        compute=compute,
        accumulate_bounds=accumulate_bounds,
        memory_budget=memory_budget,
        rows_dtype=rows_dtype,
        tol=tol,
        translation_backend=translation_backend,
    )
