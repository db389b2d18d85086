r"""Cluster-cluster compiled plans: dual-traversal M2L into leaf locals.

The target-major :class:`~repro.perf.plan.CompiledPlan` freezes one
evaluation row per (cluster, target) pair — O(pairs · p²) memory, which
at n ≈ 50k outgrows any reasonable budget and forces most far chunks to
spill back to on-the-fly evaluation.  A :class:`ClusterPlan` changes the
*algorithm*, not just the storage: a dual-tree traversal
(:func:`~repro.tree.dualtree.dual_traverse`) decomposes the interaction
into **box-box** pairs under the two-sided MAC
``(a_src + a_tgt)/r <= alpha``, each applied as a single M2L translation
into the target box's *local expansion*; locals are pushed to the
leaves with L2L and evaluated with one frozen L2P BSR product per
(unit, degree) group (:mod:`repro.perf.operators`).  Plan
memory is O(box pairs + n · p²) — index arrays, displacement vectors
and per-target L2P rows; there are **no** per-pair row matrices and
therefore no far spills, ever.

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
the un-planned path.

The far field is split into ``n_units`` *work units*, each owning a
contiguous range of Morton-sorted targets (whole leaves).  A unit
carries every box pair whose target box overlaps its range and its own
L2L push-down edges, so units are fully independent — the parallel
executors schedule them like target-major far chunks, and a unit's
contribution never touches targets outside its range.  Box pairs whose
target box spans several units are translated once per overlapping unit
(cheap: M2L cost is per *box*, amortized over the unit's targets).

The batched M2L kernel (:func:`batched_m2l`) is a layout-optimized
re-derivation of :func:`~repro.multipole.translations.m2l`: batch-last
grids, index-array packing instead of per-(n, m) Python loops, and a
``complex64`` accumulation path (relative rounding ~1e-7 — three orders
below the Theorem-1 truncation ledger it is accounted against).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bounds import theorem1_bound
from ..core.degree import select_pair_degrees
from ..core.treecode import (
    _NEAR_BUDGET,
    Treecode,
    TreecodeStats,
)
from ..multipole.harmonics import (
    degree_of_index,
    irregular_solid,
    ncoef,
    regular_solid,
    term_count,
)
from ..multipole.rotations import RotationCache, direction_keys, rotate_packed
from ..multipole.translations import (
    _iphase_grid,
    _sq_grid,
    _valid_mask,
    axial_m2l,
    l2l,
)
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span
from ..parallel.partition import (
    ROTATION_CROSSOVER_P,
    resolve_backend,
    translation_cost,
)
from ..tree.dualtree import dual_traverse
from .operators import (
    apply,
    bsr,
    complex_layout,
    index_dtype,
    op_nbytes,
    real_layout,
)
from .plan import (
    _NEAR_ENTRY_BYTES,
    DEFAULT_MEMORY_BUDGET,
    CompiledPlan,
    _add_incidences,
    _NearBlock,
    _row_blocks,
)

__all__ = ["ClusterPlan", "batched_m2l"]

#: Rows per inner batched-M2L pass — bounds the transient full-grid
#: memory (at p=8 the ``shat`` grid is ~0.5 kB/row in complex64).
_M2L_CHUNK = 32768

#: Default number of far work units (parallelism granularity).  Each
#: unit re-translates the box pairs that straddle its target range, so
#: more units mean more duplicated M2L work; 8 keeps the duplication a
#: few percent while giving the executors enough units to schedule.
_DEFAULT_UNITS = 8

#: Hard degree ceiling of the batched M2L kernel: ``sqrt((4p)!)``
#: itself overflows float64 once ``4p > 170``.  Variable-order degree
#: selection is capped here (and raises, never clamps, when a budget
#: would need more).
_M2L_MAX_P = 42

#: log2 headroom kept below the float32 overflow threshold (2^128) when
#: deciding whether a group's scaled singular grid fits the complex64
#: M2L path; the margin absorbs the multipole-coefficient magnitude the
#: grid is multiplied with during accumulation.
_M2L_C64_MARGIN_BITS = 110.0


def _m2l_c64_safe(p: int, rho_min: float) -> bool:
    """Whether the ``complex64`` M2L path can represent degree ``p`` at
    minimum pair center distance ``rho_min``.

    The largest scaled singular-grid entry is ``sqrt((2n)!) /
    rho^(n+1)`` at order ``n <= 2p``; this checks its log2 against the
    float32 exponent range minus :data:`_M2L_C64_MARGIN_BITS` headroom.
    """
    if rho_min <= 0.0:
        return False
    lg_rho = np.log2(rho_min)
    lf = 0.0  # log2((2n)!) accumulated incrementally
    worst = -np.inf
    for n in range(1, 2 * p + 1):
        lf += np.log2(2 * n - 1) + np.log2(2 * n)
        worst = max(worst, 0.5 * lf - (n + 1) * lg_rho)
    return worst < _M2L_C64_MARGIN_BITS


def _pack_idx(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed-index → (n, m>=0) coordinate arrays for degree ``p``."""
    ns, ms = degree_of_index(p)
    return np.asarray(ns), np.asarray(ms)


def _singular_grid(d_u: np.ndarray, p: int, dtype) -> np.ndarray:
    """Scaled singular grid ``(2p+1, 4p+1, len(d_u))`` of displacement
    rows ``d_u``, batch-last — the translation operator half of
    :func:`batched_m2l`, a pure elementwise function of each row."""
    ptot = 2 * p
    It = irregular_solid(d_u, ptot)  # Y_n^m / rho^{n+1}, (ncoef, B)
    nt, mt = _pack_idx(ptot)
    # i^|m| sq(n, m), identical at +-m
    scale_t = (_iphase_grid(ptot, +1) * _sq_grid(ptot))[nt, ptot + mt, None]
    shat = np.zeros((ptot + 1, 2 * ptot + 1, d_u.shape[0]), dtype=dtype)
    shat[nt, ptot + mt] = It * scale_t
    negt = mt > 0
    shat[nt[negt], ptot - mt[negt]] = np.conj(It[negt]) * scale_t[negt]
    return shat


def _dedup_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Displacement dedup, decided once per group at compile:
    ``(unique_rows, inverse)`` when at least half the rows are
    duplicates, ``None`` otherwise.

    Uniform grids emit many identical displacement rows; charge-centred
    trees emit (nearly) none.  A 1-D hash of each row's bits rejects
    the latter without the row-wise sort — colliding hashes can only
    undercount distinct rows, so a rejection is exact.
    """
    B = d.shape[0]
    if B < 16:
        return None
    bits = np.ascontiguousarray(d + 0.0).view(np.uint64)  # -0.0 -> 0.0
    h = np.sort(
        (bits[:, 0] * np.uint64(0x9E3779B97F4A7C15))
        ^ (bits[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F))
        ^ bits[:, 2]
    )
    if 2 * (1 + np.count_nonzero(h[1:] != h[:-1])) > B:
        return None
    uq, uinv = np.unique(d, axis=0, return_inverse=True)
    if 2 * uq.shape[0] > B:
        return None
    return uq, uinv.reshape(-1)


def batched_m2l(
    C: np.ndarray, d: np.ndarray, p: int, dtype=np.complex64, grid=None
) -> np.ndarray:
    """Batched same-degree M2L: ``(B, ncoef(p))`` multipoles × ``(B, 3)``
    displacements → ``(B, ncoef(p))`` locals, or ``(B, k, ncoef(p))``
    multi-RHS multipoles → ``(B, k, ncoef(p))`` locals.

    Numerically equivalent to :func:`repro.multipole.translations.m2l`
    with ``p_src = p_loc = p`` (to ~1e-7 relative in the default
    ``complex64`` path, exact structure in ``complex128``), but an order
    of magnitude faster on large batches: batch-last memory layout, the
    packed↔full grid conversions done with index arrays instead of
    per-order loops, and the translation accumulated in reduced
    precision.  A multi-RHS batch shares each pair's singular grid
    across its ``k`` columns — the per-pair translation cost is the only
    part that scales with ``k``.

    ``grid`` optionally supplies a precomputed ``(shat_u, inv)`` pair —
    a :func:`_singular_grid` of deduplicated rows (:func:`_dedup_rows`)
    plus the inverse map selecting this call's rows.  The grid is a
    pure elementwise function of its row, so the gathered grid is
    bitwise the directly-built one.
    """
    kb = None
    if C.ndim == 3:
        kb = C.shape[1]
        C = C.reshape(C.shape[0] * kb, C.shape[2])
    B = d.shape[0]  # pairs: sizes the singular grid
    R = C.shape[0]  # coefficient rows (= B * kb when batched)
    ptot = 2 * p
    if grid is None:
        shat = _singular_grid(d, p, dtype)
    else:
        shat_u, inv = grid
        shat = np.ascontiguousarray(shat_u[:, :, inv])
    ns, ms = _pack_idx(p)
    # rescaled multipole grid, batch-last, with conjugate mirror
    scale_s = (
        (_iphase_grid(p, -1) / _sq_grid(p))
        * ((-1.0) ** np.arange(p + 1))[:, None]
        * _valid_mask(p)
    )
    Ct = np.ascontiguousarray(C.T).astype(dtype)
    mhat = np.zeros((p + 1, 2 * p + 1, R), dtype=dtype)
    mhat[ns, p + ms] = Ct * scale_s[ns, p + ms].astype(dtype)[:, None]
    neg = ms > 0
    mhat[ns[neg], p - ms[neg]] = (
        np.conj(Ct[neg]) * scale_s[ns[neg], p - ms[neg]].astype(dtype)[:, None]
    )
    # translation: correlation of the two grids, batch-last.  Only the
    # m >= 0 half of the local grid is accumulated — the packed layout
    # never reads m < 0 (conjugate symmetry), which halves the work.
    # Multi-RHS batches broadcast the pair-indexed singular slice over
    # the trailing column axis, so each element sees the identical
    # scalar multiply-add as the single-vector path (bitwise for k=1).
    Lhat = np.zeros((p + 1, p + 1, R), dtype=dtype)
    mh = mhat if kb is None else mhat.reshape(p + 1, 2 * p + 1, B, kb)
    Lh = Lhat if kb is None else Lhat.reshape(p + 1, p + 1, B, kb)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            a = mh[n, m + p]
            sl = shat[n : n + p + 1, m - p + ptot : m + ptot + 1][:, ::-1]
            Lh += a[None, None] * (sl if kb is None else sl[..., None])
    scale_l = (_iphase_grid(p, -1) / _sq_grid(p)) * _valid_mask(p)
    out = Lhat[ns, ms] * scale_l[ns, p + ms].astype(dtype)[:, None]
    out = out.T
    return out if kb is None else out.reshape(B, kb, -1)


def _batched_m2l_chunked(C, d, p, dtype, dedup=None) -> np.ndarray:
    """Memory-bounded wrapper around :func:`batched_m2l`.

    Batch chunks are sized to ``_M2L_CHUNK / 2`` coefficient *rows*
    (``_M2L_CHUNK / (2k)`` pairs) — measured fastest on the correlation
    loop's working set.  ``dedup`` is the group's compile-time
    :func:`_dedup_rows` result: when set, the grid of the unique rows is
    built once and every chunk gathers its rows."""
    B = C.shape[0]
    kb = C.shape[1] if C.ndim == 3 else None
    chunk = _M2L_CHUNK if kb is None else max(1, _M2L_CHUNK // (2 * kb))
    shat_u = None if dedup is None else _singular_grid(dedup[0], p, dtype)
    out = np.empty(C.shape[:-1] + (ncoef(p),), dtype=dtype)
    for lo in range(0, B, chunk):
        hi = min(lo + chunk, B)
        grid = None if shat_u is None else (shat_u, dedup[1][lo:hi])
        out[lo:hi] = batched_m2l(C[lo:hi], d[lo:hi], p, dtype, grid=grid)
    return out


@dataclass
class _FarGroup:
    """Box pairs of one source degree inside one work unit, sorted by
    target box (``add.reduceat`` segments)."""

    p: int
    cols: np.ndarray  #: per pair, the source box's row in the degree-p operand
    d: np.ndarray  #: (B, 3) source center - target center
    seg: np.ndarray  #: reduceat segment starts
    utgt: np.ndarray  #: target box id per segment
    bgeom: np.ndarray | None  #: dual Theorem-1 factor at unit |q|
    levels: np.ndarray | None  #: source box level per pair
    cnt_t: np.ndarray | None  #: unit targets under the target box
    c64_ok: bool = True  #: complex64 M2L safe at this degree/distance
    #: dense-kernel displacement dedup ``(unique_rows, inverse)``, or
    #: ``None`` when it does not pay (see :func:`_dedup_rows`)
    dedup: tuple | None = None
    #: rotation-backend schedule ``(perm, starts, stops, op_ids, rho)``:
    #: ``perm`` sorts the pairs by rotation-operator id, ``starts``/
    #: ``stops`` delimit the equal-direction runs, ``rho`` is the center
    #: distance per sorted pair.  ``None`` selects the dense kernel.
    rot: tuple | None = None


@dataclass
class _L2PGroup:
    """Frozen local-evaluation rows for the unit leaves of one degree."""

    p: int
    tidx: np.ndarray  #: target indices (block rows, Morton-sorted space)
    leaves: np.ndarray  #: leaf node ids (block columns: their locals)
    #: BSR ``(1, 2·nc)`` rows ``[w·Re R, -w·Im R]`` of ``R = r^n Y_n^m``
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
    push_shift: list = field(default_factory=list)
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
    only index/displacement arrays and the per-target L2P rows, all
    resident.  The near field is the same CSR as the target-major
    plan's, budget-gated the same way.  :meth:`execute` matches the
    target-major plan (and the un-planned evaluator) within the
    Theorem-1 truncation ledger: the cluster path adds the target-side
    truncation, which the dual bound accounts for.
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
        rows_dtype=np.float64,
        n_units: int | None = None,
        tol: float | None = None,
        translation_backend: str = "auto",
    ) -> None:
        if not self_targets:
            raise ValueError(
                "cluster plans evaluate at the treecode's own points; "
                "self_targets must be True"
            )
        if n_units is not None and n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        self._n_units_req = n_units
        super().__init__(
            tc,
            None,
            tgt,
            self_targets=True,
            compute=compute,
            accumulate_bounds=accumulate_bounds,
            memory_budget=memory_budget,
            rows_dtype=rows_dtype,
            tol=tol,
            translation_backend=translation_backend,
        )

    # -- compilation ---------------------------------------------------
    def _compile(self, lists) -> None:  # noqa: ARG002 - dual walk, no lists
        tc, tree, tgt = self.tc, self.tc.tree, self.tgt
        grad_wanted = self.compute == "both"
        want_bounds = self.accumulate_bounds
        mem = 0
        budget_used = 0
        stats = TreecodeStats(n_targets=int(tgt.shape[0]))
        # complex64 M2L accumulation: ~1e-7 relative rounding, accounted
        # against a truncation ledger orders of magnitude larger.  That
        # accounting only holds for fixed-degree plans: a tol-compiled
        # plan promises error <= ledger <= tol, and the rounding noise
        # (relative to the potential's magnitude, not the ledger's)
        # breaks the chain once tol approaches 1e-6 — so variable-order
        # plans always translate in complex128.  Groups whose scaled
        # singular grid would overflow float32 also fall back per group
        # (see _m2l_c64_safe).
        self._m2l_dtype = np.complex128 if self.tol is not None else np.complex64
        self._tol_p_max = min(self._tol_p_max, _M2L_MAX_P)
        #: rotation operators shared by every unit's rotation-backend
        #: groups, deduplicated by quantized unit direction (uniform
        #: grids repeat the same few hundred well-separated offsets)
        self._rot_cache = RotationCache()

        pairs = dual_traverse(tree, tc.alpha)
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
            cols, p2m_mem = self._build_coefficients(fs, p_pair)
            mem += p2m_mem

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

        # ---- partition Morton-sorted targets into far work units ------
        leaves = tree.leaf_ids()
        leaves = leaves[np.argsort(tree.start[leaves])]
        n_leaves = int(leaves.size)
        self._units: list[_FarUnit] = []
        if fs.size:
            # balance on estimated M2L work per leaf — (p+1)^4 dense,
            # (p+1)^3 rotation, per the selected backend — at its target
            # box, inherited by every leaf below
            wk = np.zeros(tree.n_nodes)
            np.add.at(
                wk, ft, translation_cost(p_pair, self.translation_backend)
            )
            for dlev in range(1, tree.height):
                lo, hi = tree.level_ranges[dlev]
                ids = np.arange(lo, hi)
                wk[ids] += wk[tree.parent[ids]]
            cumw = np.cumsum(wk[leaves] + 1.0)
            req = self._n_units_req or _DEFAULT_UNITS
            req = max(1, min(req, n_leaves))
            ends = np.searchsorted(
                cumw, cumw[-1] * np.arange(1, req + 1) / req, side="left"
            )
            ends = np.unique(np.minimum(ends + 1, n_leaves))
            starts_u = np.concatenate([[0], ends[:-1]])
            bs_all, be_all = tree.start[ft], tree.end[ft]
            for ls, le in zip(starts_u, ends):
                mem += self._compile_far_unit(
                    leaves[ls:le],
                    fs,
                    ft,
                    p_pair,
                    r_pair,
                    cols,
                    bs_all,
                    be_all,
                    Ploc,
                    grad_wanted,
                    want_bounds,
                )
            mem += self._rot_cache.nbytes

        # ---- near field: per target leaf against its source leaves -----
        frozen = ([], [], [])  # incidence rows, their source lists, lists
        self._near_spill: list[_NearBlock] = []
        nsrc, ntgt = pairs.near_src, pairs.near_tgt
        if nsrc.size:
            cs = tree.end[nsrc] - tree.start[nsrc]
            ctn = tree.end[ntgt] - tree.start[ntgt]
            stats.n_pp_pairs = int(np.sum(cs * ctn)) - int(
                np.sum(np.where(nsrc == ntgt, ctn, 0))
            )
            order = np.lexsort((nsrc, ntgt))
            nsrc, ntgt = nsrc[order], ntgt[order]
            utl, tstarts = np.unique(ntgt, return_index=True)
            bnds = list(tstarts) + [nsrc.size]
            for leaf, lo, hi in zip(utl, bnds[:-1], bnds[1:]):
                nb_mem, budget_used = self._compile_near_leaf(
                    int(leaf), nsrc[lo:hi], grad_wanted, budget_used, frozen
                )
                mem += nb_mem
        mem += self._freeze_near(frozen, grad_wanted)

        self._static_stats = stats
        self.memory_bytes = int(mem)
        if is_enabled():
            # degree at/above which this plan's groups rotate: 0 when
            # forced on, past the degree cap when forced off
            cross = {
                "rotation": 0,
                "auto": ROTATION_CROSSOVER_P,
                "dense": _M2L_MAX_P + 1,
            }[self.translation_backend]
            REGISTRY.gauge(
                "plan_m2l_crossover_p",
                "degree threshold selecting the rotation M2L backend in "
                "the most recent cluster plan",
            ).set(cross)
            REGISTRY.gauge(
                "plan_m2l_rotation_dirs",
                "distinct quantized rotation directions cached by the "
                "most recent cluster plan",
            ).set(len(self._rot_cache))

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
            p_max=self._tol_p_max,
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
        self, uleaves, fs, ft, p_pair, r_pair, cols, bs_all, be_all, Ploc,
        grad_wanted, want_bounds,
    ) -> int:
        """Build one far work unit over the contiguous leaf run
        ``uleaves``; returns materialized bytes."""
        tree, tgt = self.tc.tree, self.tgt
        tlo = int(tree.start[uleaves[0]])
        thi = int(tree.end[uleaves[-1]])
        mem = 0

        # pairs whose target box overlaps the unit's particle range
        sel = np.nonzero((bs_all < thi) & (be_all > tlo))[0]
        if sel.size == 0:
            return 0
        ps_u, src_u, tgt_u = p_pair[sel], fs[sel], ft[sel]
        ordu = np.lexsort((tgt_u, ps_u))
        ps_u, src_u, tgt_u = ps_u[ordu], src_u[ordu], tgt_u[ordu]
        bs_u, be_u = bs_all[sel][ordu], be_all[sel][ordu]
        r_u = r_pair[sel][ordu]
        cols_u = cols[sel][ordu]
        unit = _FarUnit(tlo=tlo, thi=thi, n_pairs=int(sel.size))

        uniqp, pstarts = np.unique(ps_u, return_index=True)
        bnds = list(pstarts) + [ps_u.size]
        for p, lo, hi in zip(uniqp, bnds[:-1], bnds[1:]):
            p = int(p)
            srcs, tgts = src_u[lo:hi], tgt_u[lo:hi]
            gcols = cols_u[lo:hi].astype(
                index_dtype(self._operand_nodes[p].size)
            )
            d = tree.center_exp[srcs] - tree.center_exp[tgts]
            utgt, seg = np.unique(tgts, return_index=True)
            rot = None
            want = resolve_backend(self.translation_backend, p)
            if want == "rotation" and self.translation_backend == "auto":
                # the rotation pipeline only pays when operators are
                # shared: geometric-center trees repeat a few hundred
                # directions, but abs_com-centered boxes give (nearly)
                # one direction per pair, and building + caching an
                # operator per pair costs more than it saves — gate on
                # the dedup ratio before committing to any builds
                rho = np.sqrt(np.einsum("ij,ij->i", d, d))
                keys = direction_keys(d / rho[:, None])
                if 4 * np.unique(keys, axis=0).shape[0] > keys.shape[0]:
                    want = "dense"
            if want == "rotation":
                rho = np.sqrt(np.einsum("ij,ij->i", d, d))
                ids = self._rot_cache.ids_for(d / rho[:, None], p)
                perm = np.argsort(ids, kind="stable")
                ids_sorted = ids[perm]
                rbnd = np.flatnonzero(np.diff(ids_sorted)) + 1
                rstarts = np.concatenate([[0], rbnd])
                rstops = np.concatenate([rbnd, [ids_sorted.size]])
                rot = (perm, rstarts, rstops, ids_sorted[rstarts], rho[perm])
                mem += perm.nbytes + rho.nbytes + 3 * rstarts.nbytes
            bgeom = levels = cnt_t = None
            if want_bounds:
                r = r_u[lo:hi]
                asum = tree.radius[srcs] + tree.radius[tgts]
                bgeom = theorem1_bound(1.0, asum, r, p)
                levels = tree.level[srcs]
                cnt_t = np.minimum(be_u[lo:hi], thi) - np.maximum(
                    bs_u[lo:hi], tlo
                )
            dedup = _dedup_rows(d) if rot is None else None
            if dedup is not None:
                mem += dedup[0].nbytes + dedup[1].nbytes
            g = _FarGroup(
                p=p, cols=gcols, d=d, seg=seg,
                utgt=utgt, bgeom=bgeom, levels=levels, cnt_t=cnt_t,
                c64_ok=_m2l_c64_safe(p, float(r_u[lo:hi].min())),
                rot=rot, dedup=dedup,
            )
            unit.groups.append(g)
            mem += gcols.nbytes + d.nbytes + seg.nbytes
            mem += utgt.nbytes
            if want_bounds:
                mem += bgeom.nbytes + levels.nbytes + cnt_t.nbytes

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
                shift = tree.center_exp[chi] - tree.center_exp[par]
                unit.push_par.append(par)
                unit.push_chi.append(chi)
                unit.push_shift.append(shift)
                content[chi] = True
                mem += par.nbytes + chi.nbytes + shift.nbytes

        # frozen L2P rows per leaf degree: one block row per target,
        # block column its leaf's local expansion
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
            data, gdata = _row_blocks(R, pd, True, grad_wanted, self.rows_dtype)
            indptr = np.arange(tidx.size + 1, dtype=idt)
            op = bsr(data, pos, indptr, sel_l.size)
            gop = None if gdata is None else bsr(gdata, pos, indptr, sel_l.size)
            mem += op_nbytes(op, gop) + tidx.nbytes + sel_l.nbytes
            unit.l2p.append(
                _L2PGroup(p=pd, tidx=tidx, leaves=sel_l, op=op, gop=gop)
            )
        self._units.append(unit)
        return mem

    def _compile_near_leaf(
        self, leaf: int, srcs: np.ndarray, grad_wanted: bool, budget_used: int,
        frozen: tuple,
    ) -> tuple[int, int]:
        """Near rows of one target leaf against the concatenated particles
        of its near-listed source leaves, in row slices of <=
        ``_NEAR_BUDGET`` products: slices within budget join the
        ``frozen`` incidences, the rest become spilled blocks.  Returns
        (bytes, updated budget_used)."""
        tree = self.tc.tree
        s, e = int(tree.start[leaf]), int(tree.end[leaf])
        if e == s:
            return 0, budget_used
        srcs = np.sort(srcs)
        cnts = (tree.end[srcs] - tree.start[srcs]).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(cnts)])
        sidx = (
            np.arange(int(cum[-1]))
            - np.repeat(cum[:-1], cnts)
            + np.repeat(tree.start[srcs], cnts)
        )
        # self exclusion: the target leaf appears among its own sources
        pos = np.nonzero(srcs == leaf)[0]
        excl_full = int(cum[pos[0]]) + np.arange(e - s) if pos.size else None
        entry = _NEAR_ENTRY_BYTES + (3 * 8 if grad_wanted else 0)
        mem, spilled = 0, False
        step = max(1, _NEAR_BUDGET // max(1, int(sidx.size)))
        for lo in range(0, e - s, step):
            hi = min(lo + step, e - s)
            rows = np.arange(s + lo, s + hi)
            cost = (hi - lo) * sidx.size * entry
            if budget_used + cost <= self.memory_budget:
                _add_incidences(frozen, rows, sidx)
                budget_used += cost
                continue
            excl = excl_full[lo:hi] if excl_full is not None else None
            self._near_spill.append(_NearBlock(tids=rows, src=sidx, excl=excl))
            mem += rows.nbytes + (excl.nbytes if excl is not None else 0)
            mem += 0 if spilled else sidx.nbytes  # shared by the leaf's blocks
            spilled = True
        return mem, budget_used

    # -- execution -----------------------------------------------------
    @property
    def _n_far_units(self) -> int:
        return len(self._units)

    @staticmethod
    def _operand(C: np.ndarray, nc: int) -> np.ndarray:
        """M2L reads complex multipoles: the leading ``nc`` coefficients
        of a storage group's ``[Re C | Im C]`` rows, repacked."""
        return complex_layout(C, nc)

    def _rotated_m2l(self, C, g: _FarGroup, dtype) -> np.ndarray:
        """Rotation-accelerated group M2L (O((p+1)^3) per pair).

        Pairs are pre-sorted into equal-direction runs at compile time
        (``g.rot``); each run rotates its multipoles axial, applies the
        m-conserving translation, and rotates back with one shared
        operator.  Rows return in the group's target-sorted order so the
        caller's ``add.reduceat`` segments apply unchanged.

        Batched ``(B, k, nc)`` coefficients fold the batch axis into the
        row axis — each pair expands to ``k`` consecutive rows, which
        preserves the equal-direction runs, so every rotation/axial
        kernel still sees one contiguous row block per operator.
        """
        perm, starts, stops, kids, rho = g.rot
        p = g.p
        kb = None
        if C.ndim == 3:
            kb = C.shape[1]
            C = C.reshape(C.shape[0] * kb, C.shape[2])
            perm = (perm[:, None] * kb + np.arange(kb)).ravel()
            rho = np.repeat(rho, kb)
            starts, stops = starts * kb, stops * kb
        with span(
            "plan.m2l_rotate", pairs=int(perm.size), dirs=int(kids.size)
        ):
            Cs = np.ascontiguousarray(C[perm]).astype(dtype, copy=False)
            out = np.empty((Cs.shape[0], ncoef(p)), dtype=dtype)
            for lo, hi, kid in zip(starts, stops, kids):
                ops = self._rot_cache.get(int(kid))
                for clo in range(lo, hi, _M2L_CHUNK):
                    chi = min(clo + _M2L_CHUNK, hi)
                    Cr = rotate_packed(Cs[clo:chi], ops, p)
                    La = axial_m2l(Cr, rho[clo:chi], p)
                    out[clo:chi] = rotate_packed(La, ops, p, inverse=True)
            Lp = np.empty_like(out)
            Lp[perm] = out
        if kb is not None:
            Lp = Lp.reshape(-1, kb, ncoef(p))
        return Lp

    def _far_unit_eval(self, ctx, u: _FarUnit, phi, grad, bound, stats):
        """Evaluate one far unit: batched M2L into box locals, L2L
        push-down, frozen L2P.  Writes only to ``[u.tlo, u.thi)``."""
        tree = self.tc.tree
        ncmax = ncoef(self._Pmax)
        first = next(iter(ctx.values()), None)
        kb = (
            first[0].shape[1]
            if first is not None and first[0].ndim == 3
            else None
        )
        lshape = (tree.n_nodes, ncmax) if kb is None else (tree.n_nodes, kb, ncmax)
        L = np.zeros(lshape, dtype=np.complex128)
        bsc = None
        if bound is not None:
            bsc = np.zeros(tree.n_nodes if kb is None else (tree.n_nodes, kb))
        pair_ctr = (
            REGISTRY.counter(
                "plan_m2l_pairs",
                "box-pair translations applied, by kernel backend",
                labelnames=("backend",),
            )
            if is_enabled()
            else None
        )
        with span("plan.m2l", pairs=u.n_pairs, groups=len(u.groups)):
            for g in u.groups:
                nc = ncoef(g.p)
                X, A = ctx[g.p]
                C = X[g.cols]
                dt = self._m2l_dtype if g.c64_ok else np.complex128
                if g.rot is not None:
                    Lp = self._rotated_m2l(C, g, dt)
                else:
                    Lp = _batched_m2l_chunked(C, g.d, g.p, dt, g.dedup)
                if pair_ctr is not None:
                    pair_ctr.labels(
                        backend="rotation" if g.rot is not None else "dense"
                    ).inc(g.d.shape[0])
                L[g.utgt, ..., :nc] += np.add.reduceat(Lp, g.seg, axis=0)
                if bound is not None:
                    Ab = A[g.cols]
                    b = Ab * (g.bgeom if kb is None else g.bgeom[:, None])
                    bsc[g.utgt] += np.add.reduceat(b, g.seg)
                    if stats is not None:
                        bm = b if kb is None else b.sum(axis=1)
                        lsum = np.bincount(g.levels, weights=bm * g.cnt_t)
                        for Lv, s_ in enumerate(lsum):
                            if s_:
                                stats.bound_by_level[Lv] = (
                                    stats.bound_by_level.get(Lv, 0.0)
                                    + float(s_)
                                )
        with span("plan.l2l", levels=len(u.push_chi)):
            for par, chi, sh in zip(u.push_par, u.push_chi, u.push_shift):
                if kb is None:
                    L[chi] += l2l(L[par], sh, self._Pmax)
                else:  # fold the batch into the rows, shifts repeated
                    L[chi] += l2l(
                        L[par].reshape(-1, ncmax),
                        np.repeat(sh, kb, axis=0),
                        self._Pmax,
                    ).reshape(-1, kb, ncmax)
                if bsc is not None:
                    bsc[chi] += bsc[par]
        with span("plan.l2p", groups=len(u.l2p)):
            for gl in u.l2p:
                X = real_layout(L[gl.leaves, ..., : ncoef(gl.p)])
                X = X.reshape((-1,) + X.shape[2:])
                phi[gl.tidx] += apply(gl.op, X)
                if grad is not None:
                    grad[gl.tidx] += apply(gl.gop, X).reshape(-1, 3)
                if bound is not None:
                    bound[gl.tidx] += bsc[gl.leaves[gl.op.indices]]

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
            srcs = self._operand_nodes[g.p][g.cols]
            seg_ends = np.append(g.seg[1:], g.cols.size)
            for tb, lo, hi in zip(g.utgt, g.seg, seg_ends):
                ts = max(int(tree.start[tb]), u.tlo)
                te = min(int(tree.end[tb]), u.thi)
                if te <= ts:
                    continue
                blk = self.tgt[ts:te]
                acc = np.zeros((te - ts,) + q_sorted.shape[1:], dtype=np.float64)
                # two-sided MAC: source boxes never overlap their
                # target box, so no self-exclusion is needed
                for sb in srcs[lo:hi]:
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
    def _far_ops(self) -> list:
        """L2P rows (M2L displacement/index arrays are already minimal
        and stay resident)."""
        return [
            A for u in self._units for gl in u.l2p for A in (gl.op, gl.gop)
            if A is not None
        ]

    def _shed_stage2(self) -> int:
        """Drop near kernels to the exact recompute path.  L2P rows have
        no on-the-fly fallback, so they stay (float32 after stage 1)."""
        return self._drop_near()

    def _refresh_spill_counts(self) -> None:
        self.n_far_precomputed = sum(len(u.groups) for u in self._units)
        self.n_far_spilled = 0
        self._refresh_near_counts()

    def describe(self) -> str:
        """One-line summary of the compiled structure."""
        return (
            f"ClusterPlan(targets={self.n_targets}, "
            f"box_pairs={self.n_box_pairs}, units={len(self._units)}, "
            f"near={self.n_near_precomputed}+{self.n_near_spilled} spilled, "
            f"{self.memory_bytes / 1e6:.1f} MB, "
            f"compile {self.compile_time * 1e3:.1f} ms)"
        )
