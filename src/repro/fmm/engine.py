"""Uniform-grid Fast Multipole Method.

The paper closes with "the results presented in this paper can easily be
extended to the Fast Multipole Method as well.  We are currently
exploring this" — this module is that extension: a complete FMM
(P2M → M2M → M2L → L2L → L2P plus near field) over a uniform octree,
with the multipole/local degree selectable *per level* so that
Theorem 3's adaptive-degree idea transfers: for uniform charge density,
level ``l`` clusters carry ``8^(L-l)`` times the leaf charge, so the
improved schedule raises the degree by ``c`` per level above the leaves.

The first :meth:`UniformFMM.evaluate` compiles the grid into frozen
operators, and every evaluation runs them:

* P2M and L2P are block-sparse row operators over the particles;
* M2M and L2L are the dense translation kernels, one batched
  application per child octant;
* M2L is one real GEMM per (level, offset) group.  The 316 V-list
  offsets are integer multiples of the cell edge, so each reduces to
  one of 49 canonical lattice directions shared by every level
  (:mod:`repro.multipole.lattice`); the offset's distance and octant
  scalings are folded into a per-group copy of that direction's
  operator;
* the near field is one CSR over (particles × particles), applied as
  the compiled plans apply theirs
  (:func:`~repro.perf.operators.near_product`: a leaf's rows against
  one neighbour list are a dense block, one GEMV each when large).

Cells are linearized in Morton order, so the children of cell ``c``
are ``8c .. 8c+7``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..multipole.harmonics import ncoef, regular_solid, term_count
from ..multipole.lattice import lattice_keys, m2l_operators, scales, unpack_keys
from ..multipole.translations import l2l, m2m
from ..obs import emit
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.faults import maybe_corrupt
from ..robust.guards import check_finite
from ..tree.morton import deinterleave3, interleave3

__all__ = ["UniformFMM", "FMMStats", "level_degrees"]

#: Integer cell offsets within three cells of a target: the V-list
#: offsets (not neighbours), in the order their M2L groups are applied
_CUBE = np.array(
    [(dx, dy, dz) for dx in range(-3, 4) for dy in range(-3, 4) for dz in range(-3, 4)]
)
_VLIST = _CUBE[np.abs(_CUBE).max(axis=1) > 1]
#: The 27 neighbour offsets of a leaf, itself included
_NEIGHBOURS = _CUBE[np.abs(_CUBE).max(axis=1) <= 1]


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


def _offset_pairs(pos, cells, d, ncell: int, vlist: bool):
    """Cell pairs ``(tgt, src)`` at offset ``d``: each of ``cells`` (at
    integer coordinates ``pos`` on a grid of ``ncell`` per axis) with
    the cell ``d`` away, where that cell exists — and, for a V-list,
    is a child of a neighbour of the target's parent."""
    s = pos + d
    valid = ((s >= 0) & (s < ncell)).all(axis=1)
    if vlist:
        valid &= (np.abs((s >> 1) - (pos >> 1)) <= 1).all(axis=1)
    s = s[valid].astype(np.uint64)
    return cells[valid], interleave3(s[:, 0], s[:, 1], s[:, 2]).astype(np.int64)


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
        :func:`level_degrees`; an int means fixed degree.  Level ``l``
        runs its M2L and L2L at ``degrees[l]``; multipoles are stored
        at the largest degree of levels ``2..L``.
    plan_cache:
        Persistent plan-cache directory (see :mod:`repro.perf.store`).
        ``None`` consults the ``REPRO_PLAN_CACHE`` environment
        variable; ``""`` disables.  A warm cache restores the frozen
        operators of the first :meth:`evaluate` as a zero-copy
        ``mmap`` instead of compiling them.
    """

    def __init__(
        self,
        points: np.ndarray,
        charges: np.ndarray,
        level: int | None = None,
        degrees: int | list[int] = 6,
        plan_cache: str | None = None,
    ) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {points.shape}")
        n = points.shape[0]
        charges = self._check_charges(charges, n)
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
        self.stats = FMMStats()
        # frozen operators, compiled (or loaded) by the first evaluate()
        self._plan = None
        self.plan_cache = plan_cache
        self.plan_memory_bytes = 0
        self.plan_compile_time = 0.0

    def _check_charges(self, charges: np.ndarray, n: int) -> np.ndarray:
        """Validate ``(n,)`` / ``(n, k)`` charges and record whether the
        result is a column batch.  A single-column batch runs the 1-D
        path (bitwise-identical to a plain vector); :meth:`evaluate`
        restores the column axis."""
        charges = np.ascontiguousarray(charges, dtype=np.float64)
        self._col_batch = charges.ndim == 2
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must be ({n},) or ({n}, k), got {charges.shape}"
            )
        if self._col_batch and charges.shape[1] == 0:
            raise ValueError("charge batch must have at least one column")
        if self._col_batch and charges.shape[1] == 1:
            charges = charges[:, 0]
        return charges

    def set_charges(self, charges: np.ndarray) -> None:
        """Replace the charges, keeping the grid and the frozen plan.

        The operators depend on positions and degrees only, so repeated
        ``set_charges`` + :meth:`evaluate` pays just the linear algebra
        — the FMM analogue of the treecode's compiled matvec.

        ``charges`` may be an ``(n, k)`` batch of stacked charge
        vectors: :meth:`evaluate` then returns an ``(n, k)`` potential
        with every operator applied once over the batch, and ``k=1``
        stays bitwise-identical to the plain-vector path.
        """
        self.charges = self._check_charges(charges, self.points.shape[0])[self.perm]

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
    def _cell_centers(self, l: int) -> np.ndarray:
        """Centers of all cells at level ``l`` in Morton order, (8^l, 3)."""
        h = self.edge / (1 << l)
        return self.lo + (self._coords(l) + 0.5) * h

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

    # ------------------------------------------------------------------
    def _ensure_plan(self) -> dict:
        """The frozen operators, compiled at the first call.

        With a plan cache (``plan_cache`` / ``REPRO_PLAN_CACHE``), they
        are looked up by a content digest over the Morton-sorted points,
        the degree schedule and the grid; a hit restores them as
        zero-copy mmap views.
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
            },
            [self.points],
        )
        self._plan = cached_plan(cache, digest, self._compile_plan, kind="fmm")
        if self.plan_memory_bytes == 0:  # warm load: report the mapped size
            try:
                self.plan_memory_bytes = int(
                    (cache / f"{digest}.plan").stat().st_size
                )
            except OSError:
                pass
        return self._plan

    def _compile_plan(self) -> dict:
        """Freeze the grid into operators.

        * ``p2m``: BSR of per-particle rows ``rho^n conj(Y)`` about the
          leaf centre at the storage degree, one block row per occupied
          leaf;
        * ``l2p``: BSR of weighted rows ``w · rho^n Y`` at the leaf
          degree, one block row per particle;
        * ``ops``: the dense lattice M2L operator of each canonical
          direction of the V-list offsets, at the storage degree (a
          lower degree reads its leading block); ``op_of``, ``octs`` and
          ``r2`` give each offset's direction, octant and squared
          integer length;
        * ``m2l``: per level, ``(offset index, target cells, source
          cells)`` groups;
        * ``near``: CSR of ``1/r`` over (particles × particles) from
          every occupied leaf to its non-empty neighbours, coincident
          pairs zero; ``near_blocks``: the row ranges of its dense blocks
          (a leaf's particles against one neighbour list), cut at leaf
          starts, which
          :func:`~repro.perf.operators.near_product` applies as BLAS
          products.
        """
        from ..perf.operators import assemble_near, bsr, csr, index_dtype, op_nbytes
        from ..perf.plan import _row_blocks

        with stopwatch("plan.compile", engine="fmm", level=self.L) as sw:
            L, degs = self.L, self.degrees
            p_store = max(degs[2:])
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
            R, _ = _row_blocks(Rt, pL, True, False)
            slot = np.zeros(8**L, dtype=idt)
            slot[occupied] = np.arange(occupied.size, dtype=idt)
            l2p_op = bsr(
                R, slot[self.cell_of], np.arange(n + 1, dtype=idt), occupied.size
            )

            key, octs, r2 = lattice_keys(_VLIST)
            ukey, op_of = np.unique(key, return_inverse=True)
            ops = m2l_operators(unpack_keys(ukey), p_store)
            m2l = {}
            for l in range(2, L + 1):
                pos, cells = self._coords(l), np.arange(8**l)
                m2l[l] = []
                for i, d in enumerate(_VLIST):
                    tgt, src = _offset_pairs(pos, cells, d, 1 << l, True)
                    if tgt.size:
                        m2l[l].append((i, tgt, src))
            mem = op_nbytes(p2m, l2p_op) + ops.nbytes + sum(
                t.nbytes + s.nbytes for g in m2l.values() for _, t, s in g
            )

            # near: each occupied leaf's particles see the particle
            # ranges of its non-empty neighbours, one source list each
            pos = self._coords(L)[occupied]
            count = self.cell_end - self.cell_start
            pairs = [
                _offset_pairs(pos, occupied, d, 1 << L, False)
                for d in _NEIGHBOURS
            ]
            tc = np.concatenate([t[count[s] > 0] for t, s in pairs])
            sc = np.concatenate([s[count[s] > 0] for t, s in pairs])
            c = count[tc]
            first = np.cumsum(c) - c
            rows = np.arange(c.sum()) + np.repeat(self.cell_start[tc] - first, c)
            pts_t = np.ascontiguousarray(self.points.T)
            indptr, indices, data, _, blocks = assemble_near(
                pts_t,
                pts_t,
                rows,
                np.repeat(slot[sc], c),
                np.arange(n),
                ptr,
                True,
                0.0,
                False,
                cuts=ptr[:-1],
            )
            near = csr(data, indices, indptr, n)
            mem += op_nbytes(near) + blocks.nbytes
            plan = {
                "p2m": p2m,
                "l2p": l2p_op,
                "occupied": occupied,
                "ops": ops,
                "op_of": op_of,
                "octs": octs,
                "r2": r2,
                "m2l": m2l,
                "near": near,
                "near_blocks": blocks,
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
        )
        return plan

    # ------------------------------------------------------------------
    def evaluate(self) -> np.ndarray:
        """Potential at every source particle (original order),
        self-interaction excluded.

        The first call compiles the plan.  With an ``(n, k)`` charge
        batch (see :meth:`set_charges`) the result is ``(n, k)``: column
        ``j`` is the potential due to ``charges[:, j]``, with every
        operator applied once over the batch."""
        from ..perf.operators import apply, complex_layout, near_product, real_layout

        plan = self._ensure_plan()
        L = self.L
        degs = self.degrees
        p_store = max(degs[2:])
        nc_store = ncoef(p_store)
        kdim = self.charges.shape[1:]  # () for a vector, (k,) for a batch
        occupied = plan["occupied"]
        st = self.stats
        before = (st.n_m2l, st.n_terms_m2l, st.n_pp_pairs)
        with span("fmm.evaluate", n=int(self.points.shape[0]), level=L):
            # ---- upward: P2M at leaves, then M2M ----
            with stopwatch("fmm.upward", level=L) as sw:
                M = {L: np.zeros((8**L,) + kdim + (nc_store,), dtype=np.complex128)}
                Y = apply(plan["p2m"], self.charges)
                M[L][occupied] = complex_layout(
                    Y.reshape((occupied.size, 2 * nc_store) + kdim), nc_store
                )
                for l in range(L - 1, 1, -1):
                    M[l] = np.zeros((8**l,) + kdim + (nc_store,), dtype=np.complex128)
                    for sel, par, shift in self._octant_shifts(l):
                        M[l][par] += self._kfold(
                            M[l + 1][sel], lambda X: m2m(X, shift, p_store)
                        )
            st.times["upward"] = sw.elapsed

            # ---- M2L: one GEMM per (level, offset) group ----
            with stopwatch("fmm.m2l") as sw:
                Llocal = {
                    l: np.zeros((8**l,) + kdim + (ncoef(degs[l]),), dtype=np.complex128)
                    for l in range(2, L + 1)
                }
                for l in range(2, L + 1):
                    self._m2l_level(plan, l, M[l], Llocal[l])
            st.times["m2l"] = sw.elapsed

            # ---- downward: L2L ----
            with stopwatch("fmm.l2l") as sw:
                for l in range(2, L):
                    p_par = degs[l]
                    # L2L of a degree-p local is exact at degree p: the
                    # child takes the leading coefficients both degrees hold
                    m = ncoef(min(p_par, degs[l + 1]))
                    for sel, par, shift in self._octant_shifts(l):
                        shifted = self._kfold(
                            Llocal[l][par], lambda X: l2l(X, shift, p_par)
                        )
                        Llocal[l + 1][sel, ..., :m] += shifted[..., :m]
            st.times["l2l"] = sw.elapsed

            # ---- leaf: L2P + near field ----
            with stopwatch("fmm.near") as sw:
                X = real_layout(Llocal[L][occupied])
                phi = apply(plan["l2p"], X.reshape((-1,) + X.shape[2:]))
                K = plan["near"]
                phi += near_product(
                    K.indptr, K.indices, K.data, plan["near_blocks"], K.shape[1],
                    self.charges,
                )
                st.n_pp_pairs += int(K.nnz)
            st.times["near"] = sw.elapsed
        if is_enabled():
            REGISTRY.counter("fmm_m2l_ops", "M2L translations applied").inc(
                st.n_m2l - before[0]
            )
            REGISTRY.counter(
                "fmm_terms_m2l", "multipole terms evaluated in M2L"
            ).inc(st.n_terms_m2l - before[1])
            REGISTRY.counter(
                "fmm_pp_pairs", "FMM near-field particle pairs evaluated"
            ).inc(st.n_pp_pairs - before[2])
        out = np.empty(phi.shape, dtype=np.float64)
        out[self.perm] = phi
        # fault-injection site + guard: a corrupted FMM potential must
        # fail loudly at the engine boundary, never reach an experiment
        out = maybe_corrupt("fmm.potential", out)
        check_finite("fmm.potential", out, context="FMM output potential")
        if self._col_batch and out.ndim == 1:
            out = out[:, None]  # (n, 1) request ran the bitwise 1-D path
        return out

    def _octant_shifts(self, l: int):
        """Per child octant at level ``l + 1``: the child cells, their
        parents at level ``l`` and the shared child-minus-parent shift
        ``(1, 3)``."""
        child_centers = self._cell_centers(l + 1)
        parent_centers = self._cell_centers(l)
        child_ids = np.arange(8 ** (l + 1))
        for oct_ in range(8):
            sel = child_ids[(child_ids & 7) == oct_]
            par = sel >> 3
            yield sel, par, (child_centers[sel[0]] - parent_centers[par[0]])[None, :]

    def _m2l_level(self, plan: dict, l: int, M: np.ndarray, Lloc: np.ndarray) -> None:
        """Add the V-list M2L of level ``l`` into its locals ``Lloc``.

        Complex coefficients viewed as float64 are the interleaved real
        layout of the lattice operators.  An offset ``d = ρ û`` with
        octant signs ``S`` translates by ``S D(ρ)⁻¹ T(û) D(ρ)⁻¹ S / ρ``
        (``D(ρ) = diag(ρⁿ)``), folded into one copy of ``T(û)`` per
        group.
        """
        p = self.degrees[l]
        n2 = 2 * ncoef(p)
        rho = np.sqrt(plan["r2"]) * (self.edge / (1 << l))
        _, inv = scales(p, rho, plan["octs"])
        Mf, Lf = M.view(np.float64), Lloc.view(np.float64)
        for i, tgt, src in plan["m2l"][l]:
            T = plan["ops"][plan["op_of"][i], :n2, :n2] * (inv[i] / rho[i])
            T *= inv[i][:, None]
            Lf[tgt] += Mf[src, ..., :n2] @ T
            self.stats.n_m2l += tgt.size
            self.stats.n_terms_m2l += tgt.size * term_count(p)
