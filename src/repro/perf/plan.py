r"""Compiled evaluation plans: the treecode's one evaluator.

The treecode's evaluation cost per application splits into a
*geometry-dependent* part (solid harmonics, power tables, near-field
``1/r`` kernels — functions of positions only) and a *charge-dependent*
part (multiplying those tables by the charges and summing).  Iterative
callers — the BEM matvec inside GMRES, charge sweeps over a fixed cloud
— re-derive the geometry part on every application even though only
the charges change.

A :class:`CompiledPlan` freezes a built :class:`~repro.core.treecode.Treecode`
plus cached :class:`~repro.core.treecode.InteractionLists` into
``scipy.sparse`` matrices (:mod:`repro.perf.operators`), so each
subsequent application is a handful of compiled sparse products.  It
is also the one-shot evaluator: :meth:`~repro.core.treecode.Treecode.evaluate`
compiles a fully spilled plan (``memory_budget=0``) and executes it
once.

* **P2M transfer operators** — one BSR matrix per storage degree with
  ``(2·nc, 1)`` blocks: block row a source node, block column one of
  its particles, data ``[Re G; Im G]`` for the geometry rows ``G =
  rho^n conj(Y_n^m)``.  One product forms every coefficient of the
  group, for a single charge vector or an ``(n, k)`` batch, in the real
  layout ``[Re C | Im C]``.
* **Far-field row operators** — each chunk of (cluster, target) pairs
  of one degree is a BSR matrix with ``(1, (p+1)²)`` blocks: block row
  a pair (its value is scattered onto the pair's target), block column
  the source node's row in the degree's *row operand*, data ``[w·Re T,
  -w·Im T]`` for the evaluation rows ``T = Y_n^m(x) / r^{n+1}``.  The
  row operand is the coefficient operand without the imaginary parts of
  its ``m = 0`` coefficients, which are exactly zero in every operand
  and row, built once per execute; the dropped terms are ``±0``
  products, so the sums are bitwise those of the full ``2·nc`` rows.
  Gradient rows are ``(3, (p+1)²)`` blocks over the same operand.
  Rows are materialized under a configurable **memory budget**; chunks
  over budget *spill*: their potential rows are rebuilt transiently on
  every application, and their gradients contract the full operand rows
  against the irregular table without materializing gradient rows.
* **Near field** — incidences (target rows × shared source lists, the
  lists stored once as one concatenated array plus offsets) cut into
  row-range work units, one per target leaf, whatever the budget.  The
  leading units that fit the budget are one frozen CSR matrix over
  (targets × sources), self-exclusion and softening baked in as zeros;
  gradient kernels are one ``(3, nnz)`` value array on the same
  ``indices``/``indptr``.  Every other unit — spilled, shed, or
  quarantined — is re-assembled from its incidences by
  :func:`~repro.perf.operators.assemble_near`, the routine that builds
  the frozen CSR, so its values are bitwise the frozen ones.  Rows
  that share a source list form dense blocks, cut at unit starts and
  listed once at compile (:attr:`CompiledPlan.near_block_entries`
  counts their entries); every path applies the same blocks, one BLAS
  product each, and the remaining rows through scipy's CSR kernel
  (:func:`~repro.perf.operators.near_product`), so a unit's results
  are bitwise equal wherever it runs.  A plan with a source map keeps
  the CSR kernel: its folded rows no longer share one list.  A cluster
  plan's frozen potential assembly evaluates one tile per near leaf
  pair and copies its transpose into the other, bitwise the evaluated
  values (:attr:`CompiledPlan.near_mirror_entries` counts the copies).
* **Source maps** — with ``source_map=M`` the plan takes vectors ``x``
  whose charges are ``M x`` (the BEM operator's nodal densities): ``M``
  is folded into the P2M groups and the near kernels as they are
  built (:func:`~repro.perf.operators.fold_map`), and re-assembled near
  units are folded the same way, so the charges are never formed.
* **Bincount scatter** — per-target accumulation of far chunks uses
  :func:`~repro.perf.scatter.scatter_add` instead of ``np.add.at``.

Results agree with a per-pair reference (direct P2M per node, M2P per
far pair, dense near field) to rounding (``<= 1e-12``), including
gradients, Theorem-1 bound accumulation and
:class:`~repro.core.treecode.TreecodeStats` interaction counts (which
are exactly equal — they are frozen at compile time).

Invalidation rules: a plan is tied to the identity of its
:class:`~repro.core.treecode.Treecode` (whose geometry is immutable
after construction) and to the lists/targets it was compiled from.
``set_charges`` on the treecode does **not** invalidate a plan —
``execute`` takes the charge vector explicitly and touches no treecode
state.  Any geometry change means a new ``Treecode`` and therefore a
new plan.

Fault tolerance: coefficient formation passes through the
``treecode.coeffs`` injection site and NaN/Inf guard, and the output
potential runs the final finiteness and bound-accounting guards, so an
injected fault fails loudly instead of poisoning potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ..core.bounds import theorem1_bound
from ..core.degree import select_pair_degrees
from ..core.treecode import (
    InteractionLists,
    Treecode,
    TreecodeResult,
    TreecodeStats,
    record_eval_metrics,
)
from ..multipole.expansion import m_weights
from ..multipole.gradient import grad_contract_rows
from ..multipole.harmonics import (
    irregular_solid,
    ncoef,
    regular_solid,
    solid_gradient,
    term_count,
)
from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.faults import maybe_corrupt
from ..robust.guards import check_bound_accounting, check_finite
from .operators import (
    assemble_near,
    bsr,
    csr,
    csr_product,
    fold_map,
    index_dtype,
    near_blocks,
    near_product,
    op_nbytes,
    row_ranges,
)
from .scatter import scatter_add

__all__ = ["CompiledPlan", "compile_plan", "DEFAULT_MEMORY_BUDGET"]

#: Default cap on precomputed far-row + near-kernel bytes; beyond it,
#: chunks spill to on-the-fly evaluation.  P2M transfer operators are
#: always resident (they form every expansion in one product) and are
#: counted in :attr:`CompiledPlan.memory_bytes` but not budget-gated.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

#: Budget bytes per frozen near entry: float64 value + int32 column.
_NEAR_ENTRY_BYTES = 8 + 4

#: Maximum far-field pairs evaluated in one vectorized chunk.
_FAR_CHUNK = 200_000
#: Maximum near entries per near work unit.
_NEAR_BUDGET = 4_000_000
#: Particle incidences per P2M table folded at once in a mapped plan
#: (the table, ``2·nc`` floats a row, stays in cache while it folds).
_FOLD_ROWS = 1 << 13
#: Near entries re-assembled per pass when a whole plan's spilled near
#: units are evaluated together (bounds the transient CSR arrays).
_NEAR_RUN = 1 << 18


@dataclass
class _P2MGroup:
    """P2M transfer operator of one storage degree."""

    p: int
    nodes: np.ndarray  #: node ids, sorted (block-row order)
    #: BSR, ``(2·nc, 1)`` blocks ``[Re G; Im G]``: block row a node,
    #: block column one of its particles (Morton-sorted space) — or,
    #: in a plan with a source map, one source its particles map from
    op: object


@dataclass
class _FarChunk:
    """One far-field work unit: <= ``_FAR_CHUNK`` (cluster, target) pairs
    of one degree, one BSR block row per pair in traversal order."""

    p: int
    tids: np.ndarray  #: target per pair (block row)
    indptr: np.ndarray  #: block-row pointers, ``arange(pairs + 1)``
    cols: np.ndarray  #: per pair, the source's row in the degree-p operand
    #: BSR ``(1, (p+1)²)`` rows ``[w·Re T, -w·Im T]`` over the row
    #: operand (:func:`_row_columns`); None = spilled
    op: object = None
    gop: object = None  #: BSR ``(3, (p+1)²)`` gradient rows
    bgeom: np.ndarray | None = None  #: per pair Theorem-1 factor at unit charge


def _row_blocks(
    T: np.ndarray, p: int, regular: bool, want_grad: bool, compact: bool = False
):
    """BSR block data of evaluation rows over the batch-last solid table
    ``T`` (regular at degree ``p``, or irregular at ``p`` — ``p+1`` when
    ``want_grad``): potential blocks ``(B, 1, 2·nc)`` ``[w·Re T, -w·Im
    T]`` and, when ``want_grad``, gradient blocks ``(B, 3, 2·nc)`` with
    ``∂_a Φ = [Re G_a, -Im G_a] · [Re C, Im C]`` (see
    :func:`~repro.multipole.harmonics.solid_gradient`).  ``compact``
    keeps only the :func:`_row_columns` (``(p+1)²`` per block): the
    imaginary parts of ``m = 0`` meet exactly zero operand entries."""
    nc = ncoef(p)
    w = m_weights(p)
    im = _row_columns(p)[nc:] - nc if compact else slice(None)
    pm = _pair_major(T[:nc])  # (B, 2, nc) float view: real, imaginary rows
    imag = pm[:, 1, im]
    data = np.empty((T.shape[1], 1, nc + imag.shape[1]))
    np.multiply(pm[:, 0], w, out=data[:, 0, :nc])
    np.multiply(imag, -w[im], out=data[:, 0, nc:])
    if not want_grad:
        return data, None
    G = solid_gradient(T, p, regular).transpose(2, 0, 1)
    gdata = np.empty((T.shape[1], 3, data.shape[2]))
    gdata[:, :, :nc] = G.real
    np.negative(G.imag[:, :, im], out=gdata[:, :, nc:])
    return data, gdata


@lru_cache(maxsize=64)
def _row_columns(p: int) -> np.ndarray:
    """Columns of a degree-``p`` ``[Re C | Im C]`` operand that far rows
    read: every real part and the imaginary parts of ``m > 0`` — ``(p+1)²``
    of the ``2·nc``; the ``m = 0`` imaginary parts are exactly zero."""
    nc = ncoef(p)
    n = np.arange(p + 1)
    keep = np.ones(2 * nc, dtype=bool)
    keep[nc + n * (n + 1) // 2] = False
    cols = np.flatnonzero(keep)
    cols.flags.writeable = False
    return cols


def _incidences(tree, un: np.ndarray):
    """``(indices, cum)``: the Morton-sorted particles of the nodes
    ``un``, node after node, and each node's pointer into them."""
    counts = (tree.end[un] - tree.start[un]).astype(np.int64)
    cum = np.zeros(un.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    idt = index_dtype(int(cum[-1]), tree.n_particles)
    indices = (
        np.arange(cum[-1])
        - np.repeat(cum[:-1], counts)
        + np.repeat(tree.start[un], counts)
    ).astype(idt)
    return indices, cum.astype(idt)


#: per (re, im) row of :func:`_pair_major`: ``[Re R; -Im R]``
_CONJ = np.array([[1.0], [-1.0]])


def _pair_major(T: np.ndarray) -> np.ndarray:
    """A batch-last complex table ``(nc, B)`` as the ``(B, 2, nc)`` float
    view whose ``[b, 0]`` / ``[b, 1]`` rows are entry ``b``'s real and
    imaginary parts — read by one ufunc pass into the real layout."""
    return T.view(np.float64).reshape(T.shape[0], -1, 2).transpose(1, 2, 0)


def _build_p2m_group(tree, p: int, un: np.ndarray, smap=None) -> _P2MGroup:
    """P2M transfer operator over the unique nodes ``un`` of one storage
    degree, written straight into its BSR data — or, with a source map
    ``smap`` (CSR, Morton-sorted particles × sources), that operator
    times ``smap``: runs of nodes with about ``_FOLD_ROWS`` particle
    incidences each write their per-particle table and fold it
    (:func:`~repro.perf.operators.fold_map`), so the unfolded operator
    never exists and each run's table stays in cache."""
    nc = ncoef(p)
    indices, cum = _incidences(tree, un)
    owner = np.repeat(np.arange(un.size), np.diff(cum))
    centers = tree.center_exp[un]

    def table(lo: int, hi: int, out: np.ndarray) -> None:
        """Incidences ``[lo, hi)``' rows ``[Re G; Im G]`` into ``out``."""
        R = regular_solid(tree.points[indices[lo:hi]] - centers[owner[lo:hi]], p)
        np.multiply(_pair_major(R), _CONJ, out=out.reshape(-1, 2, nc))

    if smap is None:
        total = indices.size
        data = np.empty((total, 2 * nc, 1), dtype=np.float64)
        row_budget = max(1, 4_000_000 // max(nc, 1))
        for glo in range(0, total, row_budget):
            ghi = min(glo + row_budget, total)
            table(glo, ghi, data[glo:ghi])
        return _P2MGroup(p=p, nodes=un, op=bsr(data, indices, cum, tree.n_particles))
    counts, cols, vals = [], [], []
    for a, b in _runs(cum, _FOLD_ROWS):
        lo, hi = int(cum[a]), int(cum[b])
        X = np.empty((hi - lo, 2 * nc))
        table(lo, hi, X)
        ptr, c, (v,) = fold_map(cum[a : b + 1] - lo, indices[lo:hi], [X], smap)
        counts.append(np.diff(ptr))
        cols.append(c)
        vals.append(v)
    ptr = np.zeros(un.size + 1, dtype=cum.dtype)
    np.cumsum(np.concatenate(counts), out=ptr[1:])
    vals = np.concatenate(vals).reshape(-1, 2 * nc, 1)
    return _P2MGroup(p=p, nodes=un, op=bsr(vals, np.concatenate(cols), ptr, smap.shape[1]))


def _runs(ptr: np.ndarray, size: int, a: int = 0, end: int | None = None) -> list:
    """Rows ``[a, end)`` (default all) of a CSR pointer as runs ``(a,
    b)`` of about ``size`` entries each (a heavier row is a run of its
    own)."""
    runs, end = [], ptr.size - 1 if end is None else end
    while a < end:
        b = int(np.searchsorted(ptr, ptr[a] + size, "right")) - 1
        runs.append((a, min(end, max(b, a + 1))))
        a = runs[-1][1]
    return runs


def _sorted_map(source_map, tree):
    """A source map as CSR with its particle rows in Morton order,
    duplicates summed and columns sorted in each row."""
    M = sp.csr_matrix(source_map, dtype=np.float64)
    if M.shape[0] != tree.n_particles:
        raise ValueError(
            f"source_map must have {tree.n_particles} rows (one per particle), "
            f"got shape {M.shape}"
        )
    M = M[tree.perm]
    M.sum_duplicates()
    idt = index_dtype(M.nnz, *M.shape)
    M.indices = M.indices.astype(idt, copy=False)
    M.indptr = M.indptr.astype(idt, copy=False)
    return M


def _distinct(a: np.ndarray) -> np.ndarray:
    """Distinct degrees of a pair batch — a single one in fixed-degree
    plans, found there without ``np.unique``'s hashing."""
    return a[:1] if a.min() == a.max() else np.unique(a)


class CompiledPlan:
    """Frozen geometry operators for repeated charge applications.

    Build with :func:`compile_plan` or
    :meth:`repro.core.treecode.Treecode.compile_plan`; apply with
    :meth:`execute`.  The plan holds *no* charge state: ``execute`` is a
    pure function of the charge vector, so one plan serves any number of
    interleaved matvecs (GMRES iterations, sweep points) on the same
    geometry.

    Work units, the granularity the parallel executors schedule at, are
    the far chunks, then contiguous row ranges of the near field (one
    per target leaf, split at ``_NEAR_BUDGET`` entries), whatever the
    memory budget.

    With a ``source_map`` ``M`` (sparse, ``n_particles × m``, particles
    in input order) the plan applies to source vectors ``x`` of length
    ``m`` and returns the potentials of the charges ``M x`` without
    forming them: ``M`` is folded into every charge-side operator as it
    is built — each P2M group becomes ``P2M · M`` and the near kernels
    ``K · M``, row by row (:func:`~repro.perf.operators.fold_map`) —
    while far rows and the scatter, which read only coefficients, are
    unchanged.  Spilled, shed and quarantined near units fold their
    re-assembled rows the same way, so near values stay bitwise the
    frozen ones at every budget.

    Attributes
    ----------
    memory_bytes:
        Total bytes of materialized operators (P2M transfer rows,
        far-field row matrices, near-field kernels, index arrays).
    n_far_precomputed, n_far_spilled:
        Far chunks materialized vs. spilled to on-the-fly evaluation
        under the memory budget.
    n_near_precomputed, n_near_spilled:
        Near units with resident kernels (the frozen near CSR) vs.
        re-assembled from their incidences on every application
        (spilled under the budget, or shed).
    near_block_entries:
        Near entries inside dense blocks, applied as BLAS products
        rather than by the CSR kernel (0 in a plan with a source map).
    near_mirror_entries:
        Frozen near entries the assembly copied from the transposed tile
        of their leaf pair instead of evaluating them (potential cluster
        plans only; 0 in gradient, target-major and mapped plans).
    compile_time:
        Wall seconds spent compiling.
    """

    _mode = "target"

    def __init__(
        self,
        tc: Treecode,
        lists: InteractionLists,
        tgt: np.ndarray,
        self_targets: bool = False,
        compute: str = "potential",
        accumulate_bounds: bool = False,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        tol: float | None = None,
        source_map=None,
    ) -> None:
        if compute not in ("potential", "both"):
            raise ValueError(f"compute must be 'potential' or 'both', got {compute!r}")
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
        self.tol = None if tol is None else float(tol)
        #: the source map with rows in Morton order, or None
        self._map = None if source_map is None else _sorted_map(source_map, tc.tree)
        #: degree cap of per-pair selection — the VariableDegree policy's
        #: cap when that policy drives the plan; other policies' p_max
        #: attributes cap *their own* schedules, not pair selection
        from ..core.degree import VariableDegree

        self._pair_p_max = (
            int(tc.degree_policy.p_max)
            if isinstance(tc.degree_policy, VariableDegree)
            else 60
        )
        #: compile-time max per-target Theorem-1 ledger (tol plans only;
        #: anchored at the charges the treecode held at compile time)
        self.predicted_ledger_max: float | None = None if tol is None else 0.0
        with stopwatch("plan.compile", targets=int(tgt.shape[0])) as sw:
            self._compile(lists)
            sw.set(**self._predicted_work())
        self._refresh_spill_counts()
        self.compile_time = sw.elapsed
        degree_hist = dict(self._static_stats.interactions_by_degree)
        if is_enabled():
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
        emit(
            "plan_compile",
            mode=self._mode,
            targets=int(tgt.shape[0]),
            memory_bytes=int(self.memory_bytes),
            compile_s=float(self.compile_time),
            units=int(self.n_units),
            far_spilled=int(self.n_far_spilled),
            tol=self.tol,
            predicted_ledger_max=self.predicted_ledger_max,
            degree_hist={str(k): int(v) for k, v in sorted(degree_hist.items())},
        )

    # -- compilation ---------------------------------------------------
    def _compile(self, lists: InteractionLists) -> None:
        tc, tree, tgt = self.tc, self.tc.tree, self.tgt
        grad_wanted = self.compute == "both"
        mem = 0
        budget_used = 0

        # ---- far field: pairs grouped by degree, in traversal order ----
        fn, ft = lists.far_nodes, lists.far_targets
        self._p2m_groups: list[_P2MGroup] = []
        self._operands: dict[int, tuple] = {}
        self._operand_nodes: dict[int, np.ndarray] = {}
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
                    p_max=self._pair_p_max,
                    nodes=fn,
                )
                bnd = theorem1_bound(A_all, tree.radius[fn], r_all, pdeg)
                pred = np.zeros(int(tgt.shape[0]))
                scatter_add(pred, ft, bnd)
                self.predicted_ledger_max = float(pred.max())
            self.pair_degrees = np.asarray(pdeg, dtype=np.int64)
            cols, p2m_mem = self._build_coefficients(fn, pdeg, tree)
            mem += p2m_mem
            order = np.argsort(pdeg, kind="stable")
            fn, ft, pdeg, cols = fn[order], ft[order], pdeg[order], cols[order]
            starts = np.flatnonzero(np.append(True, pdeg[1:] != pdeg[:-1]))
            uniq = pdeg[starts]
            bnds = list(starts) + [fn.size]
            for u, (lo, hi) in zip(uniq, zip(bnds[:-1], bnds[1:])):
                p = int(u)
                npairs = hi - lo
                stats.n_pc_interactions += npairs
                stats.n_terms += npairs * term_count(p)
                stats.interactions_by_degree[p] = (
                    stats.interactions_by_degree.get(p, 0) + npairs
                )
                nrow = term_count(p)  # values per far row
                for clo in range(lo, hi, _FAR_CHUNK):
                    chi = min(clo + _FAR_CHUNK, hi)
                    k = chi - clo
                    ch = self._far_chunk(p, ft[clo:chi], cols[clo:chi])
                    mem += ch.tids.nbytes + ch.indptr.nbytes + ch.cols.nbytes
                    cost = k * nrow * 8
                    if grad_wanted:
                        cost += 3 * k * nrow * 8
                    if self.accumulate_bounds:
                        cost += k * 8
                    if budget_used + cost <= self.memory_budget:
                        ch.op, ch.gop, ch.bgeom = self._far_operators(
                            ch, grad_wanted, self.accumulate_bounds
                        )
                        budget_used += cost
                        mem += cost
                    self._far_chunks.append(ch)
            lev = tree.level[fn]
            cnt = np.bincount(lev)
            for L, c in enumerate(cnt):
                if c:
                    stats.interactions_by_level[L] = int(c)

        # ---- near field: each target row against its near-listed leaves
        leaves = np.array([leaf for leaf, _ in lists.near], dtype=np.int64)
        tids = [t for _, t in lists.near]
        s, e = tree.start[leaves], tree.end[leaves]
        rows = np.concatenate(tids) if tids else np.empty(0, dtype=np.int64)
        which = np.repeat(np.arange(leaves.size), [t.size for t in tids])
        off = np.zeros(leaves.size + 1, dtype=np.int64)
        np.cumsum(e - s, out=off[1:])
        src = np.arange(off[-1]) + np.repeat(s - off[:-1], e - s)
        stats.n_pp_pairs = int(np.sum((e - s)[which]))
        if self.self_targets:
            own = (rows >= s[which]) & (rows < e[which])
            stats.n_pp_pairs -= int(np.count_nonzero(own))
        mem += self._compile_near(tree, rows, which, src, off, grad_wanted, budget_used)
        mem += op_nbytes(self._map)

        self._static_stats = stats
        self.memory_bytes = int(mem)

    def _build_coefficients(self, fn: np.ndarray, pdeg: np.ndarray, tree):
        """P2M operators of ``tree``'s nodes keyed by each source node's
        *maximum* pair degree, and the per-degree coefficient operands
        far pairs read.

        A node referenced by pairs at several degrees (variable-order
        plans) gets one operator at the largest of them: the multipole
        coefficient packing is degree-major, so the coefficients a
        lower-degree pair needs are exactly the leading ``ncoef(p)``
        entries of the stored vector.  The degree-``p`` operand stacks
        those leading entries of every storage group its pairs read
        (``self._operands[p]``, rows ``self._operand_nodes[p]``).
        Fixed-degree plans assign one degree per source node, so each
        operand is a P2M product itself, uncopied.

        Returns ``(cols, bytes)``: each pair's row in its degree's
        operand, and the materialized bytes.
        """
        Psrc = np.full(tree.n_nodes, -1, dtype=np.int64)
        np.maximum.at(Psrc, fn, pdeg)
        srow = np.full(tree.n_nodes, -1, dtype=np.int64)
        groups, mem = {}, 0
        for P in np.unique(Psrc[Psrc >= 0]):
            un = np.nonzero(Psrc == P)[0]
            g = _build_p2m_group(tree, int(P), un, self._map)
            self._p2m_groups.append(g)
            groups[int(P)] = g
            srow[un] = np.arange(un.size)
            mem += op_nbytes(g.op) + un.nbytes
        cols = np.empty(fn.size, dtype=np.int64)
        base = np.zeros(int(Psrc.max()) + 1, dtype=np.int64)
        for p in _distinct(pdeg):
            m = np.nonzero(pdeg == p)[0]
            sP = Psrc[fn[m]]
            Ps = tuple(int(P) for P in _distinct(sP))
            off = 0
            for P in Ps:
                base[P] = off
                off += groups[P].nodes.size
            cols[m] = base[sP] + srow[fn[m]]
            self._operands[int(p)] = Ps
            if len(Ps) == 1:
                self._operand_nodes[int(p)] = groups[Ps[0]].nodes
            else:
                nodes = np.concatenate([groups[P].nodes for P in Ps])
                self._operand_nodes[int(p)] = nodes
                mem += nodes.nbytes
        return cols, mem

    def _far_chunk(self, p: int, tids: np.ndarray, cols: np.ndarray) -> _FarChunk:
        """Index structure of one far chunk.  Each pair is its own block
        row, so the product yields per-pair values that the caller
        scatters onto their targets in traversal order — the summation
        order of a per-pair evaluation (folding a target's pairs into one
        block row would sum all their terms in one running dot, which
        drifts from it by several ulps)."""
        idt = index_dtype(tids.size, self.n_targets, self._operand_nodes[p].size)
        return _FarChunk(
            p=p,
            tids=tids.astype(idt),
            indptr=np.arange(tids.size + 1, dtype=idt),
            cols=cols.astype(idt),
        )

    def _far_table(self, ch: _FarChunk, want_grad: bool):
        """``(T, nodes, rel)`` of a far chunk: the irregular solid table
        of its pairs (at ``p+1`` when ``want_grad``), their source nodes
        and target offsets from the expansion centres."""
        nodes = self._operand_nodes[ch.p][ch.cols]
        rel = self.tgt[ch.tids] - self.tc.tree.center_exp[nodes]
        return irregular_solid(rel, ch.p + 1 if want_grad else ch.p), nodes, rel

    def _far_operators(
        self, ch: _FarChunk, want_grad: bool, want_bound: bool, table=None
    ):
        """``(op, gop, bgeom)`` of a far chunk built from geometry (or
        from its :meth:`_far_table` ``table``) — at compile time, and on
        every application of a spilled or shed chunk (the arithmetic is
        the same, so spilled potentials are bitwise the resident
        ones)."""
        T, nodes, rel = table or self._far_table(ch, want_grad)
        data, gdata = _row_blocks(T, ch.p, False, want_grad, compact=True)
        n_rows = self._operand_nodes[ch.p].size
        op = bsr(data, ch.cols, ch.indptr, n_rows)
        gop = None if gdata is None else bsr(gdata, ch.cols, ch.indptr, n_rows)
        bgeom = None
        if want_bound:
            r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
            bgeom = theorem1_bound(1.0, self.tc.tree.radius[nodes], r, ch.p)
        return op, gop, bgeom

    def _compile_near(
        self, tree, rows, lists, src, off, grad: bool, budget_used: int, mirror=None
    ) -> int:
        """Compile the near field from incidences: target ``rows[i]`` sees
        the sources ``src[off[k] : off[k + 1]]`` of list ``k = lists[i]``.

        The rows are cut into work units — one per leaf of ``tree`` (or
        per ``leaf_size`` external targets), split at ``_NEAR_BUDGET``
        entries — whatever the budget.  The leading units that fit the
        budget are assembled into the plan's frozen near CSR; the
        incidences of the others are kept (the source lists once, as one
        concatenated array plus offsets), and
        :func:`~repro.perf.operators.assemble_near` re-assembles them on
        every application.  The dense blocks of every unit, cut at unit
        starts, are listed once (``_near_blocks``, target row ranges):
        the frozen units' as their assembly finds them, the others' from
        their incidences.  A ``mirror`` (cluster plans: see
        :func:`~repro.perf.operators.assemble_near`) lets a frozen
        potential assembly copy the transposed tile of each near leaf
        pair it holds whole instead of evaluating it twice
        (:attr:`near_mirror_entries`).  Returns the materialized bytes.
        """
        nt = self.n_targets
        keep = off[lists + 1] > off[lists]
        rows, lists = rows[keep], lists[keep]
        order = np.lexsort((src[off[lists]], rows))
        rows, lists = rows[order], lists[order]
        cum = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(off[lists + 1] - off[lists], out=cum[1:])
        indptr = row_ptr = cum[np.searchsorted(rows, np.arange(nt + 1))]
        if self.self_targets:
            starts = tree.start[tree.leaf_ids()]
        else:
            starts = np.arange(0, nt, tree.leaf_size)
        units = row_ranges(indptr, starts, _NEAR_BUDGET)
        cuts = units[:, 0]
        self._near_units = units
        self._near_cum = np.append(indptr[units[:, 0]], indptr[-1])
        entry = _NEAR_ENTRY_BYTES + (3 * 8 if grad else 0)
        cost = np.cumsum(np.diff(self._near_cum) * entry)
        nf = int(np.searchsorted(cost, self.memory_budget - budget_used, "right"))
        self._near_frozen = nf
        split = int(np.searchsorted(rows, units[nf - 1, 1])) if nf else 0
        mapped = self._map is not None
        mem = 0
        blocks = [np.empty((0, 2), dtype=np.int64)]
        if not mapped:
            blocks.append(near_blocks(rows[split:], lists[split:], off, cuts))
        self._near_K = self._near_G = self._near_inc = None
        self._near_indptr = self._near_indices = self._near_xyz = None
        self.near_mirror_entries = 0
        if mapped or nf < units.shape[0]:
            # a mapped plan keeps every row's incidences: its frozen
            # rows are folded, so they cannot stand in for them
            idt = index_dtype(nt, off[-1] + 1, tree.n_particles)
            lo = 0 if mapped else split
            inc = (rows[lo:], lists[lo:], src, off)
            self._near_inc = tuple(a.astype(idt) for a in inc)
            mem += sum(a.nbytes for a in self._near_inc)
        if nf:
            if mapped:
                indptr, indices, data, gdata = self._fold_frozen(nf, grad)
            else:
                frozen = assemble_near(
                    *self._near_coords(), rows[:split], lists[:split], src, off,
                    self.self_targets, self.tc.softening, grad, cuts=cuts,
                    mirror=mirror,
                )
                indptr, indices, data, gdata, blocks[0], self.near_mirror_entries = frozen
                self._near_indptr, self._near_indices = indptr, indices
            self._near_K = csr(data, indices, indptr, self.n_sources)
            self._near_G = gdata
            mem += op_nbytes(self._near_K) + (0 if gdata is None else gdata.nbytes)
        self._near_blocks = np.concatenate(blocks)
        b0, b1 = self._near_blocks.T
        self.near_block_entries = int(np.sum(row_ptr[b1] - row_ptr[b0]))
        #: per unit, its first row of ``_near_blocks`` (and the end)
        self._near_bptr = np.searchsorted(b0, np.append(cuts, nt))
        mem += self._near_blocks.nbytes + self._near_bptr.nbytes
        if nf < units.shape[0]:
            tgt_t, src_t = self._near_coords()
            mem += src_t.nbytes + (0 if tgt_t is src_t else tgt_t.nbytes)
        else:
            self._near_xyz = None
        return mem

    def _fold_frozen(self, nf: int, grad: bool) -> tuple:
        """Frozen near CSR arrays ``(indptr, indices, data, gdata)`` of a
        mapped plan's leading ``nf`` units, over every target row: the
        units re-assembled and folded run by run
        (:meth:`_near_block`), so the unfolded kernels of the whole
        frozen field never exist at once."""
        counts = np.zeros(self.n_targets, dtype=np.int64)
        parts = []
        for j0, j1 in _runs(self._near_cum, _NEAR_RUN, 0, nf):
            r0, r1 = int(self._near_units[j0, 0]), int(self._near_units[j1 - 1, 1])
            ptr, indices, data, gdata = self._near_block(r0, r1, grad)
            counts[r0:r1] = np.diff(ptr)
            parts.append((indices, data, gdata))
        indptr = np.zeros(self.n_targets + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        idt = index_dtype(int(indptr[-1]), self.n_sources)
        indices = np.concatenate([p[0] for p in parts]).astype(idt, copy=False)
        data = np.concatenate([p[1] for p in parts])
        gdata = np.concatenate([p[2] for p in parts], axis=1) if grad else None
        return indptr.astype(idt), indices, data, gdata

    def _near_block(self, r0: int, r1: int, want_grad: bool, inc=None) -> tuple:
        """Near CSR arrays ``(indptr, indices, data, gdata)`` of the rows
        ``[r0, r1)`` re-assembled by
        :func:`~repro.perf.operators.assemble_near` from the incidences
        ``inc`` (default: the plan's kept incidences of those rows), and
        folded with the source map when the plan has one."""
        if inc is None:
            rows, lists, src, off = self._near_inc
            a, b = np.searchsorted(rows, np.array([r0, r1], dtype=rows.dtype))
            inc = (rows[a:b], lists[a:b], src, off)
        ptr, indices, data, gdata, _, _ = assemble_near(
            *self._near_coords(), *inc, self.self_targets, self.tc.softening,
            want_grad, span=(r0, r1), cuts=self._near_units[:, 0],
        )
        if self._map is not None:
            vals = [data] if gdata is None else [data, *gdata]
            ptr, indices, folded = fold_map(ptr, indices, vals, self._map)
            data = folded[0]
            gdata = None if gdata is None else np.stack(folded[1:])
        return ptr, indices, data, gdata

    def _near_coords(self) -> tuple:
        """``(tgt_t, src_t)``: targets and sources as C-contiguous ``(3,
        n)`` arrays, the layout :func:`~repro.perf.operators.assemble_near`
        gathers from.  Kept by plans with spilled near units; a frozen
        plan builds them again when shedding or quarantine first
        re-assembles a unit."""
        if self._near_xyz is None:
            src_t = np.ascontiguousarray(self.tc.tree.points.T)
            tgt_t = src_t if self.self_targets else np.ascontiguousarray(self.tgt.T)
            self._near_xyz = (tgt_t, src_t)
        return self._near_xyz

    def _predicted_work(self) -> dict:
        """Work the compiled plan predicts per execute, attached to its
        ``plan.compile`` span: near kernel entries (and those inside
        dense blocks, and those its assembly copied), P2M operator
        entries (folded ones, in a mapped plan) and far row entries."""
        return {
            "near_entries": self.near_entries,
            "near_block_entries": self.near_block_entries,
            "near_mirror_entries": self.near_mirror_entries,
            "p2m_entries": int(sum(g.op.data.size for g in self._p2m_groups)),
            "far_entries": int(
                sum(term_count(ch.p) * ch.tids.size for ch in self._far_chunks)
            ),
        }

    # -- execution -----------------------------------------------------
    @property
    def n_targets(self) -> int:
        return int(self.tgt.shape[0])

    @property
    def n_sources(self) -> int:
        """Length of the vectors :meth:`execute` takes: the source map's
        columns, or the particles of a plan without one."""
        return self.tc.tree.n_particles if self._map is None else self._map.shape[1]

    @property
    def near_entries(self) -> int:
        """Stored near-field entries, the kernel values every execute
        applies (coincident pairs included, as zeros)."""
        return int(self._near_cum[-1])

    @property
    def _n_far_units(self) -> int:
        return len(self._far_chunks)

    @property
    def _n_near_units(self) -> int:
        return self._near_units.shape[0]

    @property
    def n_units(self) -> int:
        """Independent work units (far units, then near row ranges) — the
        granularity the parallel executor schedules at."""
        return self._n_far_units + self._n_near_units

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
        """Validate a charge array and return it in Morton order (a
        mapped plan's source vectors as they are: the map's rows carry
        the order).

        Accepts a single ``(n,)`` vector or an ``(n, k)`` batch of
        stacked charge vectors (one matvec per column), ``n`` being
        :attr:`n_sources`.  An ``(n, 1)`` batch is squeezed onto the
        single-vector path — every downstream kernel then runs exactly
        the historical 1-D code, which is what makes ``k=1`` batched
        execution bitwise-identical; entry points restore the column
        axis on their outputs.
        """
        charges = np.asarray(charges, dtype=np.float64)
        n = self.n_sources
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must have shape ({n},) or ({n}, k), got {charges.shape}"
            )
        if charges.ndim == 2:
            if charges.shape[1] == 0:
                raise ValueError("charge batch must have at least one column")
            if charges.shape[1] == 1:
                charges = charges[:, 0]
        return charges[self.tc.tree.perm] if self._map is None else charges

    def _particle_charges(self, q_sorted: np.ndarray) -> np.ndarray:
        """Morton-sorted particle charges of a :meth:`sort_charges`
        output: ``M x`` for a mapped plan, the input itself otherwise."""
        if self._map is None:
            return q_sorted
        M = self._map
        return csr_product(M.indptr, M.indices, M.data, M.shape[1], q_sorted)

    def form_coefficients(self, q_sorted: np.ndarray) -> dict:
        """Charge-dependent stage 1: the :meth:`_p2m_operands` ``{p: (X,
        A)}`` with each degree's row operand ``X[:, _row_columns(p)]``,
        as ``{p: (X, A, Xr)}``: far rows read ``Xr``, the spilled
        gradient path ``X``."""
        return {
            p: (X, A, np.take(X, _row_columns(p), axis=1))
            for p, (X, A) in self._p2m_operands(q_sorted).items()
        }

    def _p2m_operands(self, q_sorted: np.ndarray) -> dict:
        """Multipole coefficients (and, when bounds are compiled,
        absolute cluster charges) of every storage group, one P2M
        product each, assembled into the per-degree operands ``{p: (X,
        A)}`` — the stage both plan modes share.

        Passes the ``treecode.coeffs`` fault-injection site and NaN/Inf
        guard.  A mapped plan's absolute cluster charges sum ``|M x|``
        over each node's particles.
        """
        stored: dict = {}
        with span("plan.p2m", groups=len(self._p2m_groups)):
            for g in self._p2m_groups:
                C = g.op @ q_sorted
                C = C.reshape((g.nodes.size, -1) + q_sorted.shape[1:])
                C = maybe_corrupt("treecode.coeffs", C)
                check_finite(
                    "treecode.coeffs", C, context="planned multipole coefficients"
                )
                A = None
                if self.accumulate_bounds:
                    if self._map is None:
                        idx, ptr = g.op.indices, g.op.indptr
                    else:
                        idx, ptr = _incidences(self.tc.tree, g.nodes)
                    absq = np.abs(self._particle_charges(q_sorted))[idx]
                    A = np.add.reduceat(absq, ptr[:-1], axis=0)
                stored[g.p] = (C, A)
            ctx = {}
            for p, Ps in self._operands.items():
                nc = ncoef(p)
                X = [self._operand(stored[P][0], nc) for P in Ps]
                A = [stored[P][1] for P in Ps]
                ctx[p] = (
                    X[0] if len(Ps) == 1 else np.concatenate(X),
                    A[0] if len(Ps) == 1 or A[0] is None else np.concatenate(A),
                )
        return ctx

    @staticmethod
    def _operand(C: np.ndarray, nc: int) -> np.ndarray:
        """The leading ``nc`` coefficients of a storage group's ``[Re C |
        Im C]`` rows — the group's own array when nothing is cut."""
        ncP = C.shape[1] // 2
        if ncP == nc:
            return C
        return np.concatenate([C[:, :nc], C[:, ncP : ncP + nc]], axis=1)

    def _far_field(self, ctx, phi, grad, bound, stats) -> None:
        with span("plan.far_field", chunks=len(self._far_chunks)):
            for ch in self._far_chunks:
                self._far_unit(ctx, ch, phi, grad, bound, stats)

    def _far_unit(self, ctx, ch: _FarChunk, phi, grad, bound, stats):
        X, A, Xr = ctx[ch.p]
        Xf = Xr.reshape((-1,) + Xr.shape[2:])
        op, gop, bgeom = ch.op, ch.gop, ch.bgeom
        if op is None:  # spilled or shed: rebuild the potential rows
            want_bound = bound is not None and bgeom is None
            table = self._far_table(ch, grad is not None)
            op, _, built = self._far_operators(ch, False, want_bound, table)
            bgeom = built if want_bound else bgeom
        scatter_add(phi, ch.tids, op @ Xf)
        op = None  # a spilled chunk's rows go before its gradient pass
        if grad is not None:
            if gop is not None:
                g = (gop @ Xf).reshape(-1, 3)
            else:  # operand rows against the table: no (pairs, 3, 2·nc) rows
                nc = ncoef(ch.p)
                Ct = (X[:, :nc] + 1j * X[:, nc : 2 * nc]).T.copy()
                g = grad_contract_rows(Ct[:, ch.cols].T, table[0], ch.p, False)
            scatter_add(grad, ch.tids, g)
        if bound is not None:
            b = A[ch.cols] * (bgeom if A.ndim == 1 else bgeom[:, None])
            scatter_add(bound, ch.tids, b)
            levels = self.tc.tree.level[self._operand_nodes[ch.p][ch.cols]]
            lsum = np.bincount(levels, weights=b if b.ndim == 1 else b.sum(axis=1))
            for L, s_ in enumerate(lsum):
                if s_:
                    stats.bound_by_level[L] = stats.bound_by_level.get(L, 0.0) + float(
                        s_
                    )

    def _near_field(self, q_sorted, phi, grad) -> float:
        """Whole near field: the resident frozen units in one product,
        then the others re-assembled in runs of about ``_NEAR_RUN``
        entries.  Returns its seconds."""
        with stopwatch("plan.near_field", units=self._n_near_units) as sw:
            nf, m = self._near_frozen, self._n_near_units
            j = nf if self._near_K is not None else 0
            runs = [(0, j)] if j else []
            cum = self._near_cum
            runs += _runs(cum, _NEAR_RUN, j, nf) + _runs(cum, _NEAR_RUN, max(j, nf), m)
            for j0, j1 in runs:
                r0, r1 = int(self._near_units[j0, 0]), int(self._near_units[j1 - 1, 1])
                vals, gvals = self._near_rows(q_sorted, j0, j1, grad is not None)
                phi[r0:r1] += vals
                if grad is not None:
                    grad[r0:r1] += gvals
        return sw.elapsed

    def _near_rows(self, q_sorted, j0: int, j1: int, want_grad=False, exact=False):
        """Near potential (and ``(rows, 3)`` gradient) of the rows of near
        units ``[j0, j1)``, all frozen or all spilled: the frozen kernels
        while they are resident (and not ``exact``), otherwise the units
        re-assembled from their incidences (:meth:`_near_block`) — an
        unmapped plan's frozen unit's incidences being its CSR rows, each
        row its own source list.  Either way one
        :func:`~repro.perf.operators.near_product` applies the units'
        listed blocks to the arrays in hand, so entries, blocks and
        results are bitwise the frozen ones."""
        r0, r1 = int(self._near_units[j0, 0]), int(self._near_units[j1 - 1, 1])
        frozen = j1 <= self._near_frozen
        if frozen and self._near_K is not None and not exact:
            K, gdata = self._near_K, self._near_G
            ptr, indices, data = K.indptr[r0 : r1 + 1], K.indices, K.data
        else:
            inc = None
            if frozen and self._map is None:
                ptr = self._near_indptr
                rows = r0 + np.flatnonzero(np.diff(ptr[r0 : r1 + 1]))
                inc = (rows, rows, self._near_indices, ptr)
            ptr, indices, data, gdata = self._near_block(r0, r1, want_grad, inc)
        n = self.n_sources
        b = self._near_bptr
        blocks = self._near_blocks[b[j0] : b[j1]] - r0
        vals = near_product(ptr, indices, data, blocks, n, q_sorted)
        gvals = None
        if want_grad:
            gvals = -np.stack(
                [near_product(ptr, indices, g, blocks, n, q_sorted) for g in gdata],
                axis=1,
            )
        return vals, gvals

    def _near_unit(self, q_sorted, j: int, exact: bool = False):
        """Near unit ``j`` as ``(target_indices, values)``."""
        r0, r1 = (int(r) for r in self._near_units[j])
        return np.arange(r0, r1), self._near_rows(q_sorted, j, j + 1, exact=exact)[0]

    def _far_unit_output(self, ctx, q_sorted, i):
        ch = self._far_chunks[i]
        Xr = ctx[ch.p][2]
        op = ch.op
        if op is None:
            op = self._far_operators(ch, False, False)[0]
        return ch.tids, op @ Xr.reshape((-1,) + Xr.shape[2:])

    def execute_unit(self, ctx, q_sorted, i):
        """Evaluate one work unit in isolation; returns the potential
        contribution as ``(target_indices, values)``.  Used by the
        parallel executor, which schedules units across threads and
        merges in deterministic unit order — the merge is bitwise
        :meth:`execute`."""
        nf = self._n_far_units
        if i < nf:
            return self._far_unit_output(ctx, q_sorted, i)
        return self._near_unit(q_sorted, i - nf)

    def _far_unit_direct(self, q_sorted, i):
        from ..direct import pairwise_potential

        tree = self.tc.tree
        ch = self._far_chunks[i]
        tids = ch.tids
        nodes = self._operand_nodes[ch.p][ch.cols]
        q_sorted = self._particle_charges(q_sorted)
        vals = np.zeros((tids.size,) + q_sorted.shape[1:], dtype=np.float64)
        for node in np.unique(nodes):
            m = nodes == node
            s, e = int(tree.start[node]), int(tree.end[node])
            # MAC-separated clusters never contain their targets,
            # so no exclusion is needed even for self-targets
            vals[m] = pairwise_potential(
                self.tgt[tids[m]],
                tree.points[s:e],
                q_sorted[s:e],
                softening=self.tc.softening,
            )
        return tids, vals

    def execute_unit_direct(self, q_sorted, i):
        """Evaluate one work unit by exact per-pair summation.

        The supervisor's quarantine of last resort: no multipole
        machinery, no precomputed operators — each far (cluster,
        target) pair is replaced by the exact contribution of the
        cluster's particles (within the Theorem-1 bound of the
        approximated value), and near units are re-assembled from their
        incidences in float64 whatever memory shedding has done.
        Returns ``(target_indices, values)``.
        """
        nf = self._n_far_units
        if i < nf:
            return self._far_unit_direct(q_sorted, i)
        return self._near_unit(q_sorted, i - nf, exact=True)

    # -- memory shedding -----------------------------------------------
    def _shed(self) -> int:
        """Drop far rows and near kernels to the spilled paths, which
        rebuild them with the same arithmetic (potentials bitwise the
        resident ones, at the speed of a fully spilled plan)."""
        freed = 0
        for ch in self._far_chunks:
            for A in (ch.op, ch.gop):
                if A is not None:
                    freed += A.data.nbytes
            ch.op = ch.gop = None
        return freed + self._drop_near()

    def _drop_near(self) -> int:
        """Release the near kernel values, keeping their sparsity; every
        near unit is then re-assembled on each application."""
        if self._near_K is None:
            return 0
        freed = self._near_K.data.nbytes
        if self._map is not None:  # folded sparsity is never re-used
            freed += self._near_K.indices.nbytes + self._near_K.indptr.nbytes
        if self._near_G is not None:
            freed += self._near_G.nbytes
        self._near_K = self._near_G = None
        return freed

    def shed_memory(self) -> int:
        """Release plan memory under RSS pressure; returns bytes freed.

        Drops the precomputed operators to the spilled evaluation paths,
        so potentials stay bitwise equal to the unshed plan's (gradients
        of target-major far rows are contracted from the table instead,
        within rounding).  Returns 0 once nothing sheddable remains —
        the supervisor's cue to trip the memory breaker instead.  The
        work-unit layout never changes.
        """
        freed = self._shed()
        if freed:
            self.memory_bytes = int(self.memory_bytes - freed)
            self._refresh_spill_counts()
            if is_enabled():
                REGISTRY.gauge(
                    "plan_memory_bytes", "materialized bytes of the most recent plan"
                ).set(self.memory_bytes)
            emit(
                "plan_shed",
                freed_bytes=int(freed),
                memory_bytes=int(self.memory_bytes),
            )
        return freed

    def _refresh_spill_counts(self) -> None:
        self.n_far_precomputed = sum(1 for c in self._far_chunks if c.op is not None)
        self.n_far_spilled = len(self._far_chunks) - self.n_far_precomputed
        self._refresh_near_counts()

    def _refresh_near_counts(self) -> None:
        self.n_near_precomputed = self._near_frozen if self._near_K is not None else 0
        self.n_near_spilled = self._n_near_units - self.n_near_precomputed

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

        A pure function of ``charges``: no treecode state is read or
        written beyond the frozen geometry, and plans compiled at any
        memory budget agree to rounding (``<= 1e-12``).

        ``charges`` may be an ``(n, k)`` batch of stacked charge
        vectors; every operator then multiplies the whole batch in one
        sparse product, and the result's ``potential``/``error_bound``
        gain a trailing batch axis with column ``j`` the evaluation of
        ``charges[:, j]``.  A ``k=1`` batch runs the single-vector
        kernels bitwise-identically and only reshapes the outputs.
        Gradients (``compute="both"``) are single-vector only.
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
        with span("plan.execute", targets=nt, units=self.n_units, mode=self._mode):
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
            with stopwatch("plan.coefficients") as sw_c:
                ctx = self.form_coefficients(q_sorted)
            stats.times["coefficients"] = sw_c.elapsed
            self._far_field(ctx, phi, grad, bound, stats)
            stats.times["near"] = self._near_field(q_sorted, phi, grad)
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
        mapped = "" if self._map is None else f"map={self.n_sources}, "
        return (
            f"CompiledPlan(targets={self.n_targets}, {mapped}"
            f"far={self.n_far_precomputed}+{self.n_far_spilled} spilled, "
            f"near={self.n_near_precomputed}+{self.n_near_spilled} spilled, "
            f"near_entries={self.near_entries}, "
            f"near_block_entries={self.near_block_entries}, "
            f"near_mirror_entries={self.near_mirror_entries}, "
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
    tol: float | None = None,
    source_map=None,
    criterion=None,
) -> CompiledPlan:
    """Freeze a treecode into a compiled evaluation plan.

    ``mode="target"`` builds the target-major :class:`CompiledPlan` from
    precomputed interaction lists (per-pair far rows).
    ``mode="cluster"`` builds a
    :class:`~repro.perf.cluster.ClusterPlan` from a dual-tree traversal
    (box-box M2L into per-leaf local expansions) — ``lists`` is ignored
    and the targets must be the treecode's own points.  ``criterion``
    is the dual traversal's separation criterion
    (:class:`~repro.tree.dualtree.BoxMAC` of the treecode's α by default,
    or :class:`~repro.tree.dualtree.VList`, the FMM's).

    With ``tol`` set, the compiler selects a per-interaction expansion
    degree — the minimal one whose Theorem-1 (or dual-MAC) bound keeps
    each target's aggregate error ledger at or below ``tol`` — and
    buckets interactions by degree so every kernel stays a GEMM.
    ``tol=None`` reproduces today's fixed-policy plans exactly.

    ``source_map`` (sparse ``n_particles × m``, target-major plans
    only) folds a fixed linear map from source vectors to charges into
    the plan: ``execute(x)`` then returns the potentials of the charges
    ``source_map @ x`` (see :class:`CompiledPlan`).

    Equivalent to :meth:`repro.core.treecode.Treecode.compile_plan`.
    """
    if source_map is not None and mode != "target":
        raise ValueError("source_map is supported by mode='target' plans only")
    if criterion is not None and mode != "cluster":
        raise ValueError("criterion is supported by mode='cluster' plans only")
    if mode == "cluster":
        from .cluster import ClusterPlan

        return ClusterPlan(
            tc,
            tgt,
            self_targets=self_targets,
            compute=compute,
            accumulate_bounds=accumulate_bounds,
            memory_budget=memory_budget,
            tol=tol,
            criterion=criterion,
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
        tol=tol,
        source_map=source_map,
    )
