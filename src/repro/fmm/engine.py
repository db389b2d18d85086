"""Fast Multipole Method as a configuration of the cluster plan.

The paper closes with "the results presented in this paper can easily be
extended to the Fast Multipole Method as well.  We are currently
exploring this" — this module is that extension.  Engblom (*On
well-separated sets and fast multipole methods*) describes the treecode
and the FMM as one decomposition of the interactions into well-separated
box pairs under two separation criteria, and that is how it is built
here: :class:`UniformFMM` is a thin constructor over the code the
treecode already runs.

* **Tree.**  A :class:`~repro.core.treecode.Treecode` whose octree is
  refined to leaves of one particle, capped at depth ``L``: every
  occupied cell of the ``2^L``-per-axis grid is a leaf, and every
  occupied coarser cell a node.
* **Degrees.**  A :class:`~repro.core.degree.PerLevelDegree` schedule:
  level ``l`` boxes take ``degrees[l]``.  For uniform charge density,
  level ``l`` clusters carry ``8^(L-l)`` times the leaf charge, so the
  improved schedule raises the degree by ``c`` per level above the
  leaves (Theorem 3 transferred, :func:`level_degrees`).
* **Plan.**  One :class:`~repro.perf.cluster.ClusterPlan` over the full
  tree under the :class:`~repro.tree.dualtree.VList` criterion: its far
  pairs are every level's V-list (same-level boxes, not adjacent, whose
  parents are), each one lattice M2L at the pair's level degree, and its
  near pairs the 27-neighbour leaf pairs.  P2M forms each box's multipole
  from its particles; a box keeps its local at the largest degree it
  receives, pushed down the tree by L2L, and L2P runs at the leaves.

The FMM therefore shares the treecode's plans, executors, batches
and Theorem-1 ledger (``accumulate_bounds``) with no code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.degree import PerLevelDegree
from ..core.treecode import Treecode, reject_plan_store
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span, stopwatch
from ..robust.faults import maybe_corrupt
from ..robust.guards import check_finite
from ..tree.dualtree import VList

__all__ = ["UniformFMM", "FMMStats", "level_degrees"]


@dataclass
class FMMStats:
    """Operation counts of the FMM evaluations so far, and the per-stage
    seconds of the last one (``upward`` is P2M, ``near`` L2P plus the
    near field)."""

    n_m2l: int = 0
    n_pp_pairs: int = 0  #: near-field entries, coincident (self) pairs included
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
        :func:`level_degrees`; an int means fixed degree.  Level ``l``
        boxes form their multipoles and run their M2L at ``degrees[l]``.
    plan_cache:
        ``None`` or ``""`` only: there is no plan store (see
        :func:`~repro.core.treecode.reject_plan_store`).

    ``plan`` is the compiled :class:`~repro.perf.cluster.ClusterPlan`
    (``None`` until the first :meth:`evaluate`).
    """

    def __init__(
        self,
        points: np.ndarray,
        charges: np.ndarray,
        level: int | None = None,
        degrees: int | list[int] = 6,
        plan_cache: str | None = None,  # goes at the next benchmark change
    ) -> None:
        reject_plan_store("plan_cache", plan_cache)
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {points.shape}")
        n = points.shape[0]
        if n == 0:
            raise ValueError("need at least one particle")
        self.charges = self._check_charges(charges, n)

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

        # unit charges: the plan depends on positions and degrees only
        # (box centres, per-level degrees), so one plan serves every
        # charge vector
        self.tc = Treecode(
            points,
            np.ones(n),
            degree_policy=PerLevelDegree(tuple(self.degrees)),
            leaf_size=1,
            max_depth=self.L,
            expansion_center="box",
        )
        self.stats = FMMStats()
        self.plan = None
        self.plan_memory_bytes = 0
        self.plan_compile_time = 0.0

    @staticmethod
    def _check_charges(charges: np.ndarray, n: int) -> np.ndarray:
        charges = np.ascontiguousarray(charges, dtype=np.float64)
        if charges.ndim not in (1, 2) or charges.shape[0] != n:
            raise ValueError(
                f"charges must be ({n},) or ({n}, k), got {charges.shape}"
            )
        if charges.ndim == 2 and charges.shape[1] == 0:
            raise ValueError("charge batch must have at least one column")
        return charges

    def set_charges(self, charges: np.ndarray) -> None:
        """Replace the charges, keeping the tree and the compiled plan.

        The plan depends on positions and degrees only, so repeated
        ``set_charges`` + :meth:`evaluate` pays just the linear algebra
        — the FMM analogue of the treecode's compiled matvec.

        ``charges`` may be an ``(n, k)`` batch of stacked charge
        vectors: :meth:`evaluate` then returns an ``(n, k)`` potential
        with every operator applied once over the batch, and ``k=1``
        stays bitwise-identical to the plain-vector path.
        """
        self.charges = self._check_charges(charges, self.charges.shape[0])

    def adaptive_degrees(self, p0: int, alpha: float = 0.5, p_max: int = 30) -> list[int]:
        """Theorem-3 degree schedule from the *actual* per-level charges.

        For each level the median absolute box charge (over boxes with
        charge) is compared to the leaf level's; the degree increment is
        ``ceil(ln(A_l/A_leaf) / ln(1/alpha))`` — the charge-driven form
        of Theorem 3 rather than the uniform-density shortcut of
        :func:`level_degrees`.  For an ``(n, k)`` batch the column-wise
        largest ``|q|`` is used, which bounds every column's masses.
        Returns a root..leaf list usable as the ``degrees`` argument.
        """
        if p0 < 0:
            raise ValueError("p0 must be >= 0")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        tree = self.tc.tree
        a = np.abs(self.charges)
        a = a if a.ndim == 1 else a.max(axis=1)
        cs = np.concatenate([[0.0], np.cumsum(a[tree.perm])])
        box = cs[tree.end] - cs[tree.start]
        med = []
        for l in range(self.L + 1):
            occ = box[(tree.level == l) & (box > 0)]
            med.append(float(np.median(occ)) if occ.size else 0.0)
        a_leaf = med[self.L] if med[self.L] > 0 else 1.0
        return [
            p0 if m <= 0 else
            min(p_max, p0 + int(np.ceil(max(0.0, np.log(m / a_leaf) / np.log(1.0 / alpha)))))
            for m in med
        ]

    def evaluate(self) -> np.ndarray:
        """Potential at every source particle (original order),
        self-interaction excluded.

        The first call compiles the plan.  With an ``(n, k)`` charge
        batch (see :meth:`set_charges`) the result is ``(n, k)``: column
        ``j`` is the potential due to ``charges[:, j]``, with every
        operator applied once over the batch."""
        if self.plan is None:
            with stopwatch("fmm.plan", level=self.L) as sw:
                self.plan = self.tc.compile_plan(mode="cluster", criterion=VList())
            self.plan_compile_time = sw.elapsed
            self.plan_memory_bytes = int(self.plan.memory_bytes)
        with span("fmm.evaluate", n=int(self.charges.shape[0]), level=self.L):
            res = self.plan.execute(self.charges)
        st, t = self.stats, res.stats.times
        st.times = {
            "upward": t["coefficients"],
            "m2l": t.get("m2l", 0.0),
            "l2l": t.get("l2l", 0.0),
            "near": t.get("l2p", 0.0) + t["near"],
        }
        counts = (res.stats.n_pc_interactions, res.stats.n_terms, self.plan.near_entries)
        st.n_m2l += counts[0]
        st.n_terms_m2l += counts[1]
        st.n_pp_pairs += counts[2]
        if is_enabled():
            REGISTRY.counter("fmm_m2l_ops", "M2L translations applied").inc(counts[0])
            REGISTRY.counter(
                "fmm_terms_m2l", "multipole terms evaluated in M2L"
            ).inc(counts[1])
            REGISTRY.counter(
                "fmm_pp_pairs", "FMM near-field particle pairs evaluated"
            ).inc(counts[2])
        # fault-injection site + guard: a corrupted FMM potential must
        # fail loudly at the engine boundary, never reach an experiment
        out = maybe_corrupt("fmm.potential", res.potential)
        check_finite("fmm.potential", out, context="FMM output potential")
        return out
