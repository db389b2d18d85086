"""Uniform-grid Fast Multipole Method.

The paper closes with "the results presented in this paper can easily be
extended to the Fast Multipole Method as well.  We are currently
exploring this" — this module is that extension: a complete FMM
(P2M → M2M → M2L → L2L → L2P plus near field) over a uniform octree,
with the multipole/local degree selectable *per level* so that
Theorem 3's adaptive-degree idea transfers: for uniform charge density,
level ``l`` clusters carry ``8^(L-l)`` times the leaf charge, so the
improved schedule raises the degree by ``c`` per level above the leaves.

Vectorization strategy: cells are linearized in Morton order so the
children of cell ``c`` are ``8c .. 8c+7``; every translation at a level
is grouped by its *relative offset* (8 offsets for M2M/L2L, ≤316 for
M2L), and each group is one batched operator application — the shared
shift broadcasts against all cell coefficient rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bounds import degree_for_tolerance, degree_increment_per_level
from ..multipole.expansion import l2p, p2m_terms
from ..multipole.harmonics import ncoef, regular_solid, term_count
from ..multipole.rotations import RotationCache, rotate_packed
from ..multipole.translations import (
    axial_l2l,
    axial_m2l,
    axial_m2m,
    l2l,
    m2l,
    m2l_operator,
    m2m,
)
from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.faults import maybe_corrupt
from ..robust.guards import check_finite
from ..tree.morton import deinterleave3, interleave3

__all__ = ["UniformFMM", "FMMStats", "level_degrees"]


@dataclass
class FMMStats:
    """Operation counts of one FMM evaluation."""

    n_m2l: int = 0
    n_pp_pairs: int = 0
    n_terms_m2l: int = 0  #: sum over M2L applications of (p+1)^2
    times: dict = field(default_factory=dict)


def level_degrees(p0: int, n_levels: int, c: float = 0.0, p_max: int = 30) -> list[int]:
    """Degree schedule per level (index 0 = root .. index L = leaves).

    ``c = 0`` is the classic fixed-degree FMM; ``c > 0`` raises the
    degree of coarser levels by ``ceil(c * levels_above_leaf)`` — the
    Theorem-3 schedule for uniform charge density.
    """
    if p0 < 0:
        raise ValueError("p0 must be >= 0")
    L = n_levels - 1
    return [min(p_max, p0 + int(np.ceil(c * (L - l)))) for l in range(n_levels)]


class UniformFMM:
    """FMM over a uniform octree of depth ``level``.

    Parameters
    ----------
    points, charges:
        Sources, ``(n, 3)`` / ``(n,)``; charges may also be an
        ``(n, k)`` batch of stacked vectors (see :meth:`set_charges`).
    level:
        Leaf level ``L`` (``8^L`` cells); ``None`` picks
        ``~log8(n / 8)`` so leaves hold a handful of particles.
    degrees:
        Per-level degree list (root..leaf), e.g. from
        :func:`level_degrees`; an int means fixed degree.
    tol:
        Target far-field accuracy.  When set, the degree schedule is
        derived from the actual charges via :meth:`tolerance_degrees`
        (overriding ``degrees``): the leaf degree solves the Theorem-1
        inverse at the worst V-list geometry and coarser levels grow by
        :func:`~repro.core.bounds.degree_increment_per_level`.
    tol_p_max:
        Degree cap of the ``tol``-derived schedule.
    use_plan:
        Freeze the geometry into a plan (P2M rows, probed M2L operator
        matrices per offset group, L2P rows, near pair lists) at the
        *second* :meth:`evaluate`, so repeated evaluations over the same
        grid — e.g. after :meth:`set_charges` — skip all geometry
        recomputation.  The first evaluation always runs the direct
        path, so one-shot uses pay nothing.
    translation_backend:
        ``"dense"``, ``"rotation"`` or ``"auto"``: kernel family for the
        M2M/M2L/L2L sweeps.  The rotation pipeline
        (rotate-translate-rotate, O((p+1)^3) per translation) shines on
        the uniform grid: the ≤316 V-list offsets have the *same* unit
        directions at every level (offsets scale with the cell edge), so
        one small shared operator cache covers the whole hierarchy —
        and, in the planned path, replaces the per-offset dense
        ``(Tr, Ti)`` operator matrices, shrinking plan memory from
        O(offsets · p^4) to O(dirs · p^3).  ``"auto"`` rotates at
        degrees >=
        :data:`~repro.parallel.partition.ROTATION_CROSSOVER_P`.
    plan_cache:
        Persistent plan-cache directory (see :mod:`repro.perf.store`).
        ``None`` consults the ``REPRO_PLAN_CACHE`` environment
        variable; ``""`` disables.  When the plan would compile (second
        :meth:`evaluate`), a warm cache restores the frozen geometry —
        P2M/L2P rows, M2L operator matrices, rotation operators, near
        pair lists — as a zero-copy ``mmap`` instead.
    """

    def __init__(
        self,
        points: np.ndarray,
        charges: np.ndarray,
        level: int | None = None,
        degrees: int | list[int] = 6,
        tol: float | None = None,
        tol_p_max: int = 30,
        use_plan: bool = True,
        translation_backend: str = "auto",
        plan_cache: str | None = None,
    ) -> None:
        self.use_plan = bool(use_plan)
        if translation_backend not in ("dense", "rotation", "auto"):
            raise ValueError(
                "translation_backend must be 'dense', 'rotation' or "
                f"'auto', got {translation_backend!r}"
            )
        self.translation_backend = translation_backend
        #: shared rotation operators — directions repeat across levels
        self._rot_cache = RotationCache()
        points = np.ascontiguousarray(points, dtype=np.float64)
        charges = np.ascontiguousarray(charges, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {points.shape}")
        n = points.shape[0]
        self._col_batch = charges.ndim == 2
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must be ({n},) or ({n}, k), got {charges.shape}"
            )
        if self._col_batch and charges.shape[1] == 0:
            raise ValueError("charge batch must have at least one column")
        if self._col_batch and charges.shape[1] == 1:
            # single-column batch: run the 1-D path (bitwise-identical to
            # a plain vector); evaluate() restores the column axis
            charges = charges[:, 0]
        if n == 0:
            raise ValueError("need at least one particle")

        if level is None:
            level = max(2, int(np.round(np.log(max(n, 64) / 8.0) / np.log(8.0))))
        if level < 2:
            raise ValueError("level must be >= 2 (no well-separated cells above)")
        self.L = int(level)

        if isinstance(degrees, int):
            degrees = [degrees] * (self.L + 1)
        if len(degrees) != self.L + 1:
            raise ValueError(f"need {self.L + 1} degrees, got {len(degrees)}")
        self.degrees = [int(p) for p in degrees]

        # cubic domain
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        edge = float((hi - lo).max())
        edge = edge * (1 + 1e-9) if edge > 0 else 1.0
        self.lo = (lo + hi) / 2.0 - edge / 2.0
        self.edge = edge

        # assign particles to leaf cells (Morton-linearized)
        ncell = 1 << self.L
        grid = np.clip(
            ((points - self.lo) / edge * ncell).astype(np.int64), 0, ncell - 1
        ).astype(np.uint64)
        cell = interleave3(grid[:, 0], grid[:, 1], grid[:, 2]).astype(np.int64)
        self.perm = np.argsort(cell, kind="stable")
        self.points = points[self.perm]
        self.charges = charges[self.perm]
        cell = cell[self.perm]
        self.cell_of = cell
        n_cells = 8**self.L
        self.cell_start = np.searchsorted(cell, np.arange(n_cells), side="left")
        self.cell_end = np.searchsorted(cell, np.arange(n_cells), side="right")
        self.tol = None if tol is None else float(tol)
        if self.tol is not None:
            self.degrees = self.tolerance_degrees(self.tol, p_max=tol_p_max)
        self.stats = FMMStats()
        # frozen-geometry plan (P2M rows, M2L operator matrices, L2P
        # rows, near pair lists) — built lazily at the second evaluate()
        self._plan = None
        self._n_evals = 0
        self.plan_cache = plan_cache
        self.plan_memory_bytes = 0
        self.plan_compile_time = 0.0

    def set_charges(self, charges: np.ndarray) -> None:
        """Replace the charges, keeping the grid and the frozen plan.

        The geometry operators depend on positions and degrees only, so
        repeated ``set_charges`` + :meth:`evaluate` pays just the linear
        algebra — the FMM analogue of the treecode's compiled matvec.

        ``charges`` may be an ``(n, k)`` batch of stacked charge
        vectors: :meth:`evaluate` then returns an ``(n, k)`` potential
        with every translation sweep folded over the batch (one BLAS-3
        pass per operator group), and ``k=1`` stays bitwise-identical to
        the plain-vector path.
        """
        charges = np.ascontiguousarray(charges, dtype=np.float64)
        n = self.points.shape[0]
        self._col_batch = charges.ndim == 2
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must be ({n},) or ({n}, k), got {charges.shape}"
            )
        if self._col_batch and charges.shape[1] == 0:
            raise ValueError("charge batch must have at least one column")
        if self._col_batch and charges.shape[1] == 1:
            charges = charges[:, 0]
        self.charges = charges[self.perm]

    def _abs_charges(self) -> np.ndarray:
        """Per-particle absolute charge, reduced over batch columns.

        For an ``(n, k)`` batch the column-wise maximum is used: cluster
        masses built from it upper-bound every individual column's, so a
        degree schedule derived from it keeps the Theorem-1 guarantee
        for each column simultaneously.
        """
        a = np.abs(self.charges)
        return a if a.ndim == 1 else a.max(axis=1)

    @staticmethod
    def _kfold(X: np.ndarray, fn):
        """Apply a row-batched ``(B, nc) -> (B, nc')`` translation kernel
        to plain or ``(B, k, nc)`` batched coefficients by folding the
        batch axis into the rows (shared shifts broadcast unchanged)."""
        if X.ndim == 2:
            return fn(X)
        B, k = X.shape[0], X.shape[1]
        out = fn(X.reshape(B * k, X.shape[2]))
        return out.reshape(B, k, out.shape[1])

    # ------------------------------------------------------------------
    def _rot_id(self, d: np.ndarray, p: int) -> tuple[int, float]:
        """Rotation-cache id and distance for one translation vector."""
        d = np.asarray(d, dtype=np.float64).reshape(3)
        rho = float(np.sqrt(d @ d))
        kid = int(self._rot_cache.ids_for((d / rho)[None, :], p)[0])
        return kid, rho

    def _apply_rotated(self, X, kid: int, rho: float, p: int, axial):
        """Rotate-translate-rotate with one shared-direction operator."""
        ops = self._rot_cache.get(kid)
        Cr = rotate_packed(X, ops, p)
        La = axial(Cr, rho, p)
        return rotate_packed(La, ops, p, inverse=True)

    def _use_rotation(self, p: int) -> bool:
        from ..parallel.partition import resolve_backend

        return resolve_backend(self.translation_backend, p) == "rotation"

    # ------------------------------------------------------------------
    def _cell_centers(self, l: int) -> np.ndarray:
        """Centers of all cells at level ``l`` in Morton order, (8^l, 3)."""
        ids = np.arange(8**l, dtype=np.uint64)
        x, y, z = deinterleave3(ids)
        h = self.edge / (1 << l)
        g = np.stack([x, y, z], axis=1).astype(np.float64)
        return self.lo + (g + 0.5) * h

    def _coords(self, l: int) -> np.ndarray:
        ids = np.arange(8**l, dtype=np.uint64)
        x, y, z = deinterleave3(ids)
        return np.stack([x, y, z], axis=1).astype(np.int64)

    def adaptive_degrees(self, p0: int, alpha: float = 0.5, p_max: int = 30) -> list[int]:
        """Theorem-3 degree schedule from the *actual* per-level charges.

        For each level the median absolute cell charge (over occupied
        cells) is compared to the leaf level's; the degree increment is
        ``ceil(ln(A_l/A_leaf) / ln(1/alpha))`` — the charge-driven form
        of Theorem 3 rather than the uniform-density shortcut of
        :func:`level_degrees`.  Returns a root..leaf list usable as the
        ``degrees`` argument.
        """
        if p0 < 0:
            raise ValueError("p0 must be >= 0")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        absq = self._abs_charges()
        cell_abs = np.bincount(self.cell_of, weights=absq, minlength=8**self.L)
        med = {}
        ids = np.arange(8**self.L)
        for l in range(self.L, -1, -1):
            occ = cell_abs[cell_abs > 0]
            med[l] = float(np.median(occ)) if occ.size else 0.0
            if l > 0:
                cell_abs = np.bincount(ids[: 8**l] >> 3, weights=cell_abs, minlength=8 ** (l - 1))
        a_leaf = med[self.L] if med[self.L] > 0 else 1.0
        degs = []
        for l in range(self.L + 1):
            if med[l] <= 0:
                degs.append(p0)
                continue
            inc = int(np.ceil(max(0.0, np.log(med[l] / a_leaf) / np.log(1.0 / alpha))))
            degs.append(min(p_max, p0 + inc))
        return degs

    def tolerance_degrees(self, tol: float, p_max: int = 30) -> list[int]:
        """Target-accuracy degree schedule (root..leaf) for ``tol``.

        The leaf degree solves the Theorem-1 inverse
        (:func:`~repro.core.bounds.degree_for_tolerance`) at the worst
        V-list geometry of the uniform grid — source sphere
        ``a = (sqrt(3)/2) h`` (``h`` the leaf cell edge) against the
        nearest well-separated center ``r = 2h``, ratio ``a/r ~ 0.433``
        — for the largest occupied leaf charge, with the per-interaction
        budget ``tol`` split over the at most 189 V-list sources on each
        of the ``L - 1`` active levels.  Coarser levels add
        ``ceil(c * (L - l))`` with
        ``c = degree_increment_per_level(a/r)``: one level up multiplies
        the worst cell charge by at most 8 while ``a/r`` is
        scale-invariant on the uniform grid, which is exactly the
        Theorem-3/Theorem-5 schedule.  Degrees are clamped to ``p_max``
        (the M2L operator cost grows as ``p^4``; the schedule is a
        guide, the a-posteriori check is comparison against direct
        summation).
        """
        tol = float(tol)
        if tol <= 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        L = self.L
        h = self.edge / (1 << L)
        a = np.sqrt(3.0) / 2.0 * h
        r = 2.0 * h
        cell_abs = np.bincount(
            self.cell_of, weights=self._abs_charges(), minlength=8**L
        )
        A_leaf = float(cell_abs.max())
        if A_leaf <= 0.0:
            return [0] * (L + 1)
        n_active = max(L - 1, 1)
        eps0 = tol / (n_active * 189.0)
        p_leaf = int(degree_for_tolerance(A_leaf, a, r, eps0, p_max=p_max))
        c = degree_increment_per_level(a / r)
        return [
            min(p_max, p_leaf + int(np.ceil(c * (L - l))))
            for l in range(L + 1)
        ]

    # ------------------------------------------------------------------
    def _ensure_plan(self) -> dict:
        """Freeze the grid geometry into reusable operators.

        * **P2M rows** ``G``: per-particle ``rho^n conj(Y)`` relative to
          its leaf center, so the leaf upward pass is one segmented GEMV.
        * **M2L operator matrices**: the translation is real-linear (not
          complex-linear — conjugate symmetry enters), so each
          (level, offset) group's operator is probed once with the basis
          ``[I; iI]`` into a pair of complex matrices ``(Tr, Ti)``;
          applying it is ``M.real @ Tr + M.imag @ Ti``, two BLAS GEMMs.
        * **L2P rows** ``R``: per-particle ``w · Y rho^n`` at the leaf
          degree; the downward leaf pass is one row-wise contraction.
        * **Near pair lists**: the (target cell, source cell) pairs per
          neighbor offset, in the direct path's traversal order.

        With a plan cache (``plan_cache`` / ``REPRO_PLAN_CACHE``), the
        frozen geometry is looked up by a content digest over the
        Morton-sorted points, the degree schedule and the grid/backend
        configuration; a hit restores the plan *and* the rotation
        operator cache it references as zero-copy mmap views.
        """
        if self._plan is not None:
            return self._plan
        from ..perf.store import cached_plan, content_digest, resolve_cache_dir

        cache = resolve_cache_dir(self.plan_cache)
        if cache is None:
            self._plan = self._compile_plan()
            return self._plan
        digest = content_digest(
            {
                "kind": "fmm",
                "level": int(self.L),
                "degrees": [int(p) for p in self.degrees],
                "edge": float(self.edge),
                "lo": [float(v) for v in self.lo],
                "translation_backend": self.translation_backend,
            },
            [self.points],
        )
        bundle = cached_plan(
            cache,
            digest,
            lambda: {"plan": self._compile_plan(), "rot": self._rot_cache},
            kind="fmm",
        )
        # the plan's rotation group ids index the cache it was saved
        # with — adopt it (id-stably rebuilt on a warm load)
        self._rot_cache = bundle["rot"]
        self._plan = bundle["plan"]
        if self.plan_memory_bytes == 0:  # warm load: report the mapped size
            try:
                self.plan_memory_bytes = int(
                    (cache / f"{digest}.plan").stat().st_size
                )
            except OSError:
                pass
        return self._plan

    def _compile_plan(self) -> dict:
        from ..perf.operators import bsr, index_dtype, op_nbytes
        from ..perf.plan import _row_blocks

        with stopwatch("plan.compile", engine="fmm", level=self.L) as sw:
            L, degs = self.L, self.degrees
            p_store = max(degs[2:]) if L >= 2 else degs[-1]
            centers_L = self._cell_centers(L)
            occupied = np.nonzero(self.cell_end > self.cell_start)[0]
            pL = degs[L]
            n = self.points.shape[0]
            # one regular table serves both: P2M rows rho^n conj(Y) at
            # p_store and weighted L2P rows rho^n Y at pL (degree-major
            # packing: a lower degree is a leading slice).  Particles
            # are cell-sorted, so the occupied cells' particle ranges
            # tile [0, n): P2M block row = occupied cell, block column =
            # particle; L2P block row = particle, block column = its
            # cell's position among the occupied cells
            Rt = regular_solid(
                self.points - centers_L[self.cell_of], max(p_store, pL)
            )
            nc = ncoef(p_store)
            idt = index_dtype(n, 8**L)
            G = np.empty((n, 2 * nc, 1), dtype=np.float64)
            G[:, :nc, 0] = Rt[:nc].real.T
            np.negative(Rt[:nc].imag.T, out=G[:, nc:, 0])
            ptr = np.append(self.cell_start[occupied], n).astype(idt)
            p2m = bsr(G, np.arange(n, dtype=idt), ptr, n)
            R, _ = _row_blocks(Rt, pL, True, False, np.float64)
            slot = np.zeros(8**L, dtype=idt)
            slot[occupied] = np.arange(occupied.size, dtype=idt)
            l2p_op = bsr(
                R, slot[self.cell_of], np.arange(n + 1, dtype=idt), occupied.size
            )
            mem = op_nbytes(p2m, l2p_op)

            m2l_groups: dict[int, list] = {}
            for l in range(2, L + 1):
                p = degs[l]
                use_rot = self._use_rotation(p)
                pos = self._coords(l)
                ncell = 1 << l
                h = self.edge / ncell
                order = np.arange(8**l)
                groups = []
                for dx in range(-3, 4):
                    for dy in range(-3, 4):
                        for dz in range(-3, 4):
                            if max(abs(dx), abs(dy), abs(dz)) <= 1:
                                continue
                            src_x = pos[:, 0] + dx
                            src_y = pos[:, 1] + dy
                            src_z = pos[:, 2] + dz
                            valid = (
                                (src_x >= 0) & (src_x < ncell)
                                & (src_y >= 0) & (src_y < ncell)
                                & (src_z >= 0) & (src_z < ncell)
                            )
                            if l > 2:
                                valid &= (
                                    (np.abs((src_x >> 1) - (pos[:, 0] >> 1)) <= 1)
                                    & (np.abs((src_y >> 1) - (pos[:, 1] >> 1)) <= 1)
                                    & (np.abs((src_z >> 1) - (pos[:, 2] >> 1)) <= 1)
                                )
                            tgt = order[valid]
                            if tgt.size == 0:
                                continue
                            src = interleave3(
                                src_x[valid].astype(np.uint64),
                                src_y[valid].astype(np.uint64),
                                src_z[valid].astype(np.uint64),
                            ).astype(np.int64)
                            d = np.array([[dx * h, dy * h, dz * h]])
                            if use_rot:
                                # offsets scale with h, so their unit
                                # directions repeat at every level — the
                                # cache holds <= 316 operators total
                                kid, rho = self._rot_id(d[0], p)
                                groups.append(("rot", tgt, src, kid, rho))
                                mem += tgt.nbytes + src.nbytes
                            else:
                                Tr, Ti = m2l_operator(d, p, p)
                                groups.append(("dense", tgt, src, Tr, Ti))
                                mem += (
                                    tgt.nbytes + src.nbytes
                                    + Tr.nbytes + Ti.nbytes
                                )
                m2l_groups[l] = groups
            mem += self._rot_cache.nbytes

            near_pairs = []
            coordsL = self._coords(L)
            ncell = 1 << L
            for dx in range(-1, 2):
                for dy in range(-1, 2):
                    for dz in range(-1, 2):
                        tgt_pos = coordsL[occupied]
                        sx = tgt_pos[:, 0] + dx
                        sy = tgt_pos[:, 1] + dy
                        sz = tgt_pos[:, 2] + dz
                        valid = (
                            (sx >= 0) & (sx < ncell)
                            & (sy >= 0) & (sy < ncell)
                            & (sz >= 0) & (sz < ncell)
                        )
                        tcells = occupied[valid]
                        if tcells.size == 0:
                            continue
                        scells = interleave3(
                            sx[valid].astype(np.uint64),
                            sy[valid].astype(np.uint64),
                            sz[valid].astype(np.uint64),
                        ).astype(np.int64)
                        nonempty = self.cell_end[scells] > self.cell_start[scells]
                        tcells, scells = tcells[nonempty], scells[nonempty]
                        if tcells.size:
                            near_pairs.append((tcells, scells))
                            mem += tcells.nbytes + scells.nbytes
            self._plan = {
                "p2m": p2m,
                "l2p": l2p_op,
                "occupied": occupied,
                "m2l": m2l_groups,
                "near": near_pairs,
            }
        self.plan_compile_time = sw.elapsed
        self.plan_memory_bytes = int(mem)
        if is_enabled():
            REGISTRY.gauge(
                "plan_memory_bytes", "materialized bytes of the most recent plan"
            ).set(self.plan_memory_bytes)
        emit(
            "plan_compile",
            mode="fmm",
            targets=int(self.points.shape[0]),
            memory_bytes=self.plan_memory_bytes,
            compile_s=float(self.plan_compile_time),
            level=int(self.L),
            translation_backend=self.translation_backend,
        )
        return self._plan

    # ------------------------------------------------------------------
    def evaluate(self) -> np.ndarray:
        """Potential at every source particle (original order),
        self-interaction excluded.

        With an ``(n, k)`` charge batch (see :meth:`set_charges`) the
        result is ``(n, k)``: column ``j`` is the potential due to
        ``charges[:, j]``, with every translation group applied once
        over the folded batch."""
        L = self.L
        degs = self.degrees
        p_store = max(degs[2:]) if L >= 2 else degs[-1]
        nc_store = ncoef(p_store)
        kdim = self.charges.shape[1:]  # () for a vector, (k,) for a batch
        obs_on = is_enabled()
        plan = None
        if self.use_plan and (self._plan is not None or self._n_evals >= 1):
            plan = self._ensure_plan()
        outer = span("fmm.evaluate", n=int(self.points.shape[0]), level=L).__enter__()
        m2l_before = self.stats.n_m2l
        terms_before = self.stats.n_terms_m2l
        pp_before = self.stats.n_pp_pairs

        # ---- upward: P2M at leaves, then M2M ----
        sw = stopwatch("fmm.upward", level=L).__enter__()
        centers_L = self._cell_centers(L)
        M = {L: np.zeros((8**L,) + kdim + (nc_store,), dtype=np.complex128)}
        if plan is not None:
            from ..perf.operators import apply, complex_layout

            occupied = plan["occupied"]
            Y = apply(plan["p2m"], self.charges)
            M[L][occupied] = complex_layout(
                Y.reshape((occupied.size, 2 * nc_store) + kdim), nc_store
            )
        else:
            occupied = np.nonzero(self.cell_end > self.cell_start)[0]
            for c in occupied:
                s, e = self.cell_start[c], self.cell_end[c]
                rel = self.points[s:e] - centers_L[c]
                if self.charges.ndim == 1:
                    M[L][c] = p2m_terms(rel, self.charges[s:e], p_store).sum(axis=0)
                else:
                    M[L][c] = np.stack(
                        [
                            p2m_terms(rel, self.charges[s:e, j], p_store).sum(axis=0)
                            for j in range(self.charges.shape[1])
                        ]
                    )
        rot_up = self._use_rotation(p_store)
        for l in range(L - 1, 1, -1):
            child_centers = self._cell_centers(l + 1)
            parent_centers = self._cell_centers(l)
            Ml = np.zeros((8**l,) + kdim + (nc_store,), dtype=np.complex128)
            child_ids = np.arange(8 ** (l + 1))
            parent_ids = child_ids >> 3
            # group children by their octant: each octant shares one shift
            for oct_ in range(8):
                sel = child_ids[(child_ids & 7) == oct_]
                par = parent_ids[sel]
                shift = (child_centers[sel[0]] - parent_centers[par[0]])[None, :]
                if rot_up:
                    kid, rho = self._rot_id(shift[0], p_store)
                    Ml[par] += self._kfold(
                        M[l + 1][sel],
                        lambda X: self._apply_rotated(
                            X, kid, rho, p_store, axial_m2m
                        ),
                    )
                else:
                    Ml[par] += self._kfold(
                        M[l + 1][sel], lambda X: m2m(X, shift, p_store)
                    )
            M[l] = Ml
        sw.__exit__(None, None, None)
        self.stats.times["upward"] = sw.elapsed

        # ---- M2L at every level (V-lists grouped by offset) ----
        sw = stopwatch("fmm.m2l").__enter__()
        Llocal = {
            l: np.zeros((8**l,) + kdim + (ncoef(degs[l]),), dtype=np.complex128)
            for l in range(2, L + 1)
        }
        if plan is not None:
            for l in range(2, L + 1):
                p = degs[l]
                nc_p = ncoef(p)
                Ll = Llocal[l]
                Ml = M[l]
                for kind, tgt, src, a, b in plan["m2l"][l]:
                    X = Ml[src][..., :nc_p]
                    if kind == "rot":
                        Ll[tgt] += self._kfold(
                            X, lambda C: self._apply_rotated(C, a, b, p, axial_m2l)
                        )
                    else:
                        # matmul broadcasts over the batch axis natively
                        Ll[tgt] += X.real @ a + X.imag @ b
                    self.stats.n_m2l += tgt.size
                    self.stats.n_terms_m2l += tgt.size * term_count(p)
            sw.__exit__(None, None, None)
            self.stats.times["m2l"] = sw.elapsed
        else:
            self._m2l_direct(M, Llocal, sw)

        # ---- downward: L2L ----
        sw = stopwatch("fmm.l2l").__enter__()
        for l in range(2, L):
            p_par, p_child = degs[l], degs[l + 1]
            rot_down = self._use_rotation(p_par)
            child_centers = self._cell_centers(l + 1)
            parent_centers = self._cell_centers(l)
            child_ids = np.arange(8 ** (l + 1))
            parent_ids = child_ids >> 3
            for oct_ in range(8):
                sel = child_ids[(child_ids & 7) == oct_]
                par = parent_ids[sel]
                shift = (child_centers[sel[0]] - parent_centers[par[0]])[None, :]
                if rot_down:
                    kid, rho = self._rot_id(shift[0], p_par)
                    shifted = self._kfold(
                        Llocal[l][par],
                        lambda X: self._apply_rotated(
                            X, kid, rho, p_par, axial_l2l
                        ),
                    )
                else:
                    shifted = self._kfold(
                        Llocal[l][par], lambda X: l2l(X, shift, p_par)
                    )
                Llocal[l + 1][sel] += shifted[..., : ncoef(p_child)]
        sw.__exit__(None, None, None)
        self.stats.times["l2l"] = sw.elapsed

        # ---- leaf: L2P + near field ----
        sw = stopwatch("fmm.near").__enter__()
        n = self.points.shape[0]
        phi = np.zeros((n,) + kdim, dtype=np.float64)
        pL = degs[L]
        if plan is not None:
            from ..perf.operators import apply, real_layout

            X = real_layout(Llocal[L][plan["occupied"]])
            phi += apply(plan["l2p"], X.reshape((-1,) + X.shape[2:]))
            for tcells, scells in plan["near"]:
                for tc, sc in zip(tcells, scells):
                    ts, te = self.cell_start[tc], self.cell_end[tc]
                    ss, se = self.cell_start[sc], self.cell_end[sc]
                    d = self.points[ts:te, None, :] - self.points[None, ss:se, :]
                    r2 = np.einsum("tsi,tsi->ts", d, d)
                    with np.errstate(divide="ignore"):
                        inv = 1.0 / np.sqrt(r2)
                    inv[r2 == 0.0] = 0.0
                    phi[ts:te] += inv @ self.charges[ss:se]
                    self.stats.n_pp_pairs += (te - ts) * (se - ss)
        else:
            for c in occupied:
                s, e = self.cell_start[c], self.cell_end[c]
                rel = self.points[s:e] - centers_L[c]
                Lc = Llocal[L][c]
                if Lc.ndim == 1:
                    phi[s:e] += l2p(Lc, rel, pL)
                else:
                    phi[s:e] += np.stack(
                        [l2p(Lc[j], rel, pL) for j in range(Lc.shape[0])],
                        axis=1,
                    )
            self._near_direct(phi, occupied)
        sw.__exit__(None, None, None)
        self.stats.times["near"] = sw.elapsed
        return self._finish(phi, obs_on, outer, m2l_before, terms_before, pp_before)

    def _m2l_direct(self, M, Llocal, sw) -> None:
        """Direct (un-planned) M2L sweep, one batched translation per
        (level, offset) group."""
        L, degs = self.L, self.degrees
        for l in range(2, L + 1):
            p = degs[l]
            use_rot = self._use_rotation(p)
            coords = self._coords(l)
            ncell = 1 << l
            h = self.edge / ncell
            order = np.arange(8**l)
            pos = coords  # integer coords per linear id
            for dx in range(-3, 4):
                for dy in range(-3, 4):
                    for dz in range(-3, 4):
                        if max(abs(dx), abs(dy), abs(dz)) <= 1:
                            continue
                        # well-separated at this level; for l > 2 the
                        # sources must also be children of the parent's
                        # neighborhood (the classic V-list condition)
                        src_x = pos[:, 0] + dx
                        src_y = pos[:, 1] + dy
                        src_z = pos[:, 2] + dz
                        valid = (
                            (src_x >= 0) & (src_x < ncell)
                            & (src_y >= 0) & (src_y < ncell)
                            & (src_z >= 0) & (src_z < ncell)
                        )
                        if l > 2:
                            valid &= (
                                (np.abs((src_x >> 1) - (pos[:, 0] >> 1)) <= 1)
                                & (np.abs((src_y >> 1) - (pos[:, 1] >> 1)) <= 1)
                                & (np.abs((src_z >> 1) - (pos[:, 2] >> 1)) <= 1)
                            )
                        tgt = order[valid]
                        if tgt.size == 0:
                            continue
                        src = interleave3(
                            src_x[valid].astype(np.uint64),
                            src_y[valid].astype(np.uint64),
                            src_z[valid].astype(np.uint64),
                        ).astype(np.int64)
                        d = np.array([[dx * h, dy * h, dz * h]])
                        X = M[l][src][..., : ncoef(p)]
                        if use_rot:
                            kid, rho = self._rot_id(d[0], p)
                            Llocal[l][tgt] += self._kfold(
                                X,
                                lambda C: self._apply_rotated(
                                    C, kid, rho, p, axial_m2l
                                ),
                            )
                        else:
                            Llocal[l][tgt] += self._kfold(
                                X, lambda C: m2l(C, d, p, p)
                            )
                        self.stats.n_m2l += tgt.size
                        self.stats.n_terms_m2l += tgt.size * term_count(p)
        sw.__exit__(None, None, None)
        self.stats.times["m2l"] = sw.elapsed

    def _near_direct(self, phi: np.ndarray, occupied: np.ndarray) -> None:
        """Direct (un-planned) near-field sweep over neighbor offsets."""
        L = self.L
        coordsL = self._coords(L)
        ncell = 1 << L
        for dx in range(-1, 2):
            for dy in range(-1, 2):
                for dz in range(-1, 2):
                    tgt_pos = coordsL[occupied]
                    sx = tgt_pos[:, 0] + dx
                    sy = tgt_pos[:, 1] + dy
                    sz = tgt_pos[:, 2] + dz
                    valid = (
                        (sx >= 0) & (sx < ncell)
                        & (sy >= 0) & (sy < ncell)
                        & (sz >= 0) & (sz < ncell)
                    )
                    tcells = occupied[valid]
                    if tcells.size == 0:
                        continue
                    scells = interleave3(
                        sx[valid].astype(np.uint64),
                        sy[valid].astype(np.uint64),
                        sz[valid].astype(np.uint64),
                    ).astype(np.int64)
                    nonempty = self.cell_end[scells] > self.cell_start[scells]
                    tcells, scells = tcells[nonempty], scells[nonempty]
                    for tc, sc in zip(tcells, scells):
                        ts, te = self.cell_start[tc], self.cell_end[tc]
                        ss, se = self.cell_start[sc], self.cell_end[sc]
                        d = self.points[ts:te, None, :] - self.points[None, ss:se, :]
                        r2 = np.einsum("tsi,tsi->ts", d, d)
                        with np.errstate(divide="ignore"):
                            inv = 1.0 / np.sqrt(r2)
                        inv[r2 == 0.0] = 0.0
                        phi[ts:te] += inv @ self.charges[ss:se]
                        self.stats.n_pp_pairs += (te - ts) * (se - ss)

    def _finish(self, phi, obs_on, outer, m2l_before, terms_before, pp_before):
        """Metrics, un-sorting and output guards shared by both paths."""
        n = phi.shape[0]
        self._n_evals += 1
        if obs_on:
            REGISTRY.counter("fmm_m2l_ops", "M2L translations applied").inc(
                self.stats.n_m2l - m2l_before
            )
            REGISTRY.counter(
                "fmm_terms_m2l", "multipole terms evaluated in M2L"
            ).inc(self.stats.n_terms_m2l - terms_before)
            REGISTRY.counter(
                "fmm_pp_pairs", "FMM near-field particle pairs evaluated"
            ).inc(self.stats.n_pp_pairs - pp_before)

        outer.__exit__(None, None, None)
        out = np.empty(phi.shape, dtype=np.float64)
        out[self.perm] = phi
        # fault-injection site + guard: a corrupted FMM potential must
        # fail loudly at the engine boundary, never reach an experiment
        out = maybe_corrupt("fmm.potential", out)
        check_finite("fmm.potential", out, context="FMM output potential")
        if self._col_batch and out.ndim == 1:
            out = out[:, None]  # (n, 1) request ran the bitwise 1-D path
        return out
