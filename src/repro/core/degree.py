"""Multipole-degree selection policies.

The *original* Barnes-Hut method uses one global degree
(:class:`FixedDegree`).  The paper's improved method
(:class:`AdaptiveChargeDegree`, Theorem 3) raises the degree of
high-charge clusters so that every particle-cluster interaction carries
the same error; :class:`LevelDegree` is the structured-distribution
special case where charge is uniform and the degree depends only on the
tree level.

A policy maps a built :class:`~repro.tree.octree.Octree` to an integer
evaluation degree per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tree.octree import Octree
from .bounds import (
    degree_for_tolerance,
    degree_increment_per_level,
    theorem1_bound,
    theorem3_degree,
)

__all__ = [
    "DegreePolicy",
    "FixedDegree",
    "AdaptiveChargeDegree",
    "LevelDegree",
    "PerLevelDegree",
    "ToleranceDegree",
    "VariableDegree",
    "DegreeSelectionError",
    "select_pair_degrees",
]


class DegreeSelectionError(ValueError):
    """A per-interaction error budget is infeasible at the degree cap.

    Raised by :func:`select_pair_degrees` when some interaction's
    Theorem-1 bound still exceeds its budget at ``p_max`` — variable-
    order compilation refuses to silently clamp (which would break the
    ``ledger <= tol`` contract).  Carries located diagnostics: the
    offending pair indices, source node ids, geometry and the achieved
    bound vs. the budget at the worst pair.
    """

    def __init__(
        self, pair_idx, nodes, A, a, r, achieved, budgets, p_max: int
    ) -> None:
        self.pair_idx = np.asarray(pair_idx)
        self.nodes = np.asarray(nodes)
        self.p_max = int(p_max)
        worst = int(np.argmax(np.asarray(achieved) / np.asarray(budgets)))
        self.worst = {
            "pair": int(self.pair_idx[worst]),
            "node": int(self.nodes[worst]),
            "A": float(np.asarray(A)[worst]),
            "a": float(np.asarray(a)[worst]),
            "r": float(np.asarray(r)[worst]),
            "achieved_bound": float(np.asarray(achieved)[worst]),
            "budget": float(np.asarray(budgets)[worst]),
        }
        w = self.worst
        super().__init__(
            f"{self.pair_idx.size} interaction(s) cannot meet their error "
            f"budget at p_max={p_max}; worst: pair {w['pair']} "
            f"(source node {w['node']}, A={w['A']:.3e}, a={w['a']:.3e}, "
            f"r={w['r']:.3e}) achieves bound {w['achieved_bound']:.3e} "
            f"> budget {w['budget']:.3e}. Loosen tol or raise p_max."
        )


def select_pair_degrees(A, a, r, budgets, p_max: int = 30, nodes=None):
    """Minimal per-interaction degrees meeting per-interaction budgets.

    For each interaction (cluster absolute charge ``A``, effective
    radius ``a`` — the source radius, or ``a_src + a_tgt`` under the
    dual MAC — and center distance ``r``) return the smallest ``p`` with
    ``theorem1_bound(A, a, r, p) <= budget``.  All arguments broadcast.

    Raises :class:`DegreeSelectionError` where even ``p_max`` cannot
    meet the budget (infeasible tolerance), rather than clamping;
    ``nodes`` (source node ids) sharpens the diagnostics.
    """
    A = np.asarray(A, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    p = degree_for_tolerance(A, a, r, budgets, p_max=p_max)
    b = theorem1_bound(A, a, r, p)
    # the closed form can undershoot by one degree at float precision;
    # bump and re-check before declaring a budget infeasible
    short = (b > budgets) & (p < p_max)
    if np.any(short):
        p = np.where(short, p + 1, p)
        b = theorem1_bound(A, a, r, p)
    # zero-charge clusters contribute no error at any degree
    p = np.where(A <= 0.0, 0, p)
    bad = (b > budgets * (1.0 + 1e-12)) & (A > 0.0)
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        nid = np.asarray(nodes)[idx] if nodes is not None else idx
        raise DegreeSelectionError(
            idx, nid,
            np.broadcast_to(A, bad.shape)[idx],
            np.broadcast_to(a, bad.shape)[idx],
            np.broadcast_to(r, bad.shape)[idx],
            b[idx], np.broadcast_to(budgets, bad.shape)[idx], p_max,
        )
    return p.astype(np.int64)


class DegreePolicy:
    """Base class: assigns an evaluation degree to every tree node."""

    def degrees(self, tree: Octree) -> np.ndarray:  # pragma: no cover - interface
        """Return an ``(n_nodes,)`` int array of evaluation degrees."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FixedDegree(DegreePolicy):
    """The original method: the same degree ``p`` for every cluster."""

    p: int = 4

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError(f"degree must be >= 0, got {self.p}")

    def degrees(self, tree: Octree) -> np.ndarray:
        return np.full(tree.n_nodes, self.p, dtype=np.int64)


@dataclass(frozen=True)
class AdaptiveChargeDegree(DegreePolicy):
    """Theorem 3: per-cluster degree that equalizes interaction error.

    Forcing the Theorem-2 bound to be equal across clusters gives

    ``p_j = p0 + ceil( ln(rho_j / rho_0) / ln(1/alpha) )``

    where ``rho_j`` measures how error-prone cluster ``j`` is and
    ``rho_0`` is the anchor value at which degree ``p0`` suffices.  Two
    normalizations are provided:

    ``mode="bound"`` (default)
        ``rho_j = A_j / a_j`` — the Theorem-2 bound evaluated at each
        cluster's *worst accepted distance* ``r_j = a_j / alpha``
        (``a_j`` is the enclosing radius): the bound becomes
        ``A_j alpha^{p+2} / (a_j (1-alpha))``, so equalizing it uses the
        charge *per radius*.  For uniform charge density ``A ∝ a^3``,
        the degree grows by ``2 ln2 / ln(1/alpha)`` per level — this is
        the schedule behind the paper's "within 7/3" cost claim.

    ``mode="charge"``
        ``rho_j = A_j`` — the literal statement of Theorem 3 (common
        ``r`` factored out).  More conservative: degrees grow by
        ``3 ln2 / ln(1/alpha)`` per level.

    Parameters
    ----------
    p0:
        Minimum degree (degree of the anchor cluster).
    alpha:
        The MAC parameter the treecode will run with; the degree
        schedule depends on it through the error bound.
    p_max:
        Hard cap on the degree (the paper notes unstructured domains can
        otherwise demand very large degrees; the cap corresponds to its
        "threshold value" mitigation).
    anchor:
        ``"leaf_min"`` — the paper's "smallest net charge cluster at
        lowest level": every interaction is pushed down to the error of
        the best-resolved leaf interaction.  ``"leaf_median"``
        (default) — the median leaf, robust to a single tiny outlier
        leaf inflating every degree in unstructured distributions.
    """

    p0: int = 4
    alpha: float = 0.5
    p_max: int = 30
    anchor: str = "leaf_median"
    mode: str = "bound"

    def __post_init__(self) -> None:
        if self.p0 < 0:
            raise ValueError(f"p0 must be >= 0, got {self.p0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.p_max < self.p0:
            raise ValueError("p_max must be >= p0")
        if self.anchor not in ("leaf_min", "leaf_median"):
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.mode not in ("bound", "charge"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def _rho(self, tree: Octree) -> np.ndarray:
        """Error-proneness measure per node (see class docstring)."""
        if self.mode == "charge":
            return tree.abs_charge.astype(np.float64)
        # Floor the radius at the typical leaf radius: a cluster tighter
        # than an ordinary leaf is never harder to approximate than the
        # anchor (near-degenerate radii — e.g. single-particle leaves —
        # would otherwise send A/a, and hence the degree, to the cap).
        leaves = tree.leaf_ids()
        lr = tree.radius[leaves]
        lr = lr[lr > 0]
        a_floor = float(np.median(lr)) if lr.size else 1.0
        rho = tree.abs_charge / np.maximum(tree.radius, a_floor)
        return rho

    def anchor_value(self, tree: Octree) -> float:
        leaves = tree.leaf_ids()
        rho = self._rho(tree)[leaves]
        rho = rho[rho > 0]
        if rho.size == 0:
            return 1.0  # all-zero charges: degrees collapse to p0
        return float(np.min(rho) if self.anchor == "leaf_min" else np.median(rho))

    def degrees(self, tree: Octree) -> np.ndarray:
        rho0 = self.anchor_value(tree)
        return theorem3_degree(self._rho(tree), rho0, self.p0, self.alpha, self.p_max)


@dataclass(frozen=True)
class LevelDegree(DegreePolicy):
    """Structured-distribution schedule: degree grows with box size.

    For uniform charge density, ``A_j`` grows by 8× per level so
    Theorem 3 reduces to ``p = p0 + ceil(c * (height-1 - level))`` with
    ``c = 3 ln2 / ln(1/alpha)``.  Unlike
    :class:`AdaptiveChargeDegree` this ignores the actual charges, which
    makes it exactly reproducible for grid studies and cheap to compute.
    """

    p0: int = 4
    alpha: float = 0.5
    p_max: int = 30

    def __post_init__(self) -> None:
        if self.p0 < 0:
            raise ValueError(f"p0 must be >= 0, got {self.p0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.p_max < self.p0:
            raise ValueError("p_max must be >= p0")

    def degrees(self, tree: Octree) -> np.ndarray:
        c = degree_increment_per_level(self.alpha)
        depth_above_leaf = (tree.height - 1) - tree.level
        p = self.p0 + np.ceil(c * np.maximum(depth_above_leaf, 0)).astype(np.int64)
        return np.clip(p, self.p0, self.p_max)


@dataclass(frozen=True)
class PerLevelDegree(DegreePolicy):
    """An explicit schedule: degree ``levels[l]`` at every node of tree
    level ``l`` (the root is level 0) — the FMM's per-level degrees."""

    levels: tuple = (4,)

    def __post_init__(self) -> None:
        if min(self.levels, default=-1) < 0:
            raise ValueError(f"need one degree >= 0 per level, got {self.levels}")

    def degrees(self, tree: Octree) -> np.ndarray:
        if tree.height > len(self.levels):
            raise ValueError(
                f"tree has {tree.height} levels, schedule {len(self.levels)}"
            )
        return np.asarray(self.levels, dtype=np.int64)[tree.level]


@dataclass(frozen=True)
class ToleranceDegree(DegreePolicy):
    """Pick each cluster's degree from an absolute error tolerance.

    The user-facing inverse of the analysis: given a per-interaction
    tolerance ``tol``, each cluster gets the smallest degree whose
    Theorem-1 bound at its worst accepted distance (``r = a/alpha``)
    meets it.  This subsumes Theorem 3 (equal per-interaction error)
    while letting callers specify the error budget directly instead of
    anchoring at a leaf.

    Parameters
    ----------
    tol:
        Absolute per-interaction error tolerance.
    alpha:
        MAC parameter the treecode will run with.
    p_min, p_max:
        Degree clamps.
    """

    tol: float = 1e-6
    alpha: float = 0.5
    p_min: int = 1
    p_max: int = 30

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError("need 0 <= p_min <= p_max")

    def degrees(self, tree: Octree) -> np.ndarray:
        a = tree.radius
        r = np.maximum(a / self.alpha, 1e-300)
        p = degree_for_tolerance(tree.abs_charge, a, r, self.tol, p_max=self.p_max)
        return np.clip(p, self.p_min, self.p_max)


@dataclass(frozen=True)
class VariableDegree(DegreePolicy):
    """Target-accuracy policy behind ``compile_plan(tol=...)``.

    As a plain node policy it behaves like :class:`ToleranceDegree`
    with ``p_min=0`` (smallest degree whose Theorem-1 bound at the
    worst accepted distance meets ``tol``).  Its real role is carrying
    the target accuracy into plan compilation: when a treecode built
    with this policy is compiled (``Treecode.compile_plan``), ``tol``
    defaults from the policy and the compiler re-selects the degree
    **per interaction** — each far pair gets the minimal degree whose
    Theorem-1 (particle-cluster) or dual-MAC (cluster-cluster) bound
    keeps the aggregate per-target ledger at or under ``tol`` — then
    buckets interactions by degree so every kernel stays a GEMM.

    Parameters
    ----------
    tol:
        Aggregate per-target error budget (absolute potential error).
    alpha:
        MAC parameter the treecode will run with.
    p_max:
        Degree cap; an infeasible budget at ``p_max`` raises
        :class:`DegreeSelectionError` instead of clamping.
    """

    tol: float = 1e-6
    alpha: float = 0.5
    p_max: int = 60

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.p_max < 0:
            raise ValueError(f"p_max must be >= 0, got {self.p_max}")

    def degrees(self, tree: Octree) -> np.ndarray:
        a = tree.radius
        r = np.maximum(a / self.alpha, 1e-300)
        return degree_for_tolerance(
            tree.abs_charge, a, r, self.tol, p_max=self.p_max
        )
