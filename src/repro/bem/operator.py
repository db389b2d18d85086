r"""Treecode-accelerated single-layer boundary operator.

Discretization follows the paper: the surface is triangulated, "a fixed
number of Gauss-points are located inside each element and inserted into
the hierarchical domain representation", and the potential is collocated
at the element vertices.  The density is piecewise linear (nodal), so
the operator is

.. math::

    (A \sigma)_i = \sum_e \sum_{g \in e} \frac{w_g}{4\pi\,|v_i - x_g|}
                    \sum_{c=1}^{3} N_c(g)\, \sigma_{e_c}

The treecode is built **once** over the Gauss points: the octree, the
degree schedule (from the quadrature weights — "all parameters for the
degree of an interaction are available at the time of tree
construction") and the vertex interaction lists are geometry-only.
Each Gauss-point charge is a fixed linear function of the nodal
density, ``q = W σ`` with three entries per row of ``W`` (weight ×
shape value / 4π).  The first matvec compiles the geometry into a
target-major plan (:class:`~repro.perf.plan.CompiledPlan`) with ``W``
folded into its P2M and near operators, so every GMRES matvec pays only
for the plan's sparse products with the new densities — the charges
are never formed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..core.degree import DegreePolicy, FixedDegree
from ..core.treecode import Treecode, TreecodeStats, reject_plan_store
from ..obs.metrics import REGISTRY
from ..obs.tracing import is_enabled, span
from ..tree.octree import build_octree
from .mesh import TriangleMesh
from .quadrature import mesh_quadrature, triangle_rule

__all__ = ["SingleLayerOperator", "OperatorGeometry", "quadrature_map"]

_FOUR_PI = 4.0 * np.pi


def quadrature_map(weights, gp_nodes, gp_shape, n_vertices: int):
    """The map ``W`` from nodal densities to Gauss-point charges, ``q =
    W σ``: CSR ``(G, V)``, row ``g`` holding ``w_g N_c(g) / 4π`` at the
    three nodes ``c`` of its element."""
    # scipy.sparse loads with the plan machinery, at the first matvec
    import scipy.sparse as sp

    G = weights.size
    data = (weights[:, None] * gp_shape / _FOUR_PI).ravel()
    indptr = np.arange(0, 3 * G + 1, 3)
    return sp.csr_matrix((data, gp_nodes.ravel(), indptr), shape=(G, n_vertices))


class OperatorGeometry:
    """Geometry shared across several operators on the same mesh.

    Table-3-style sweeps build many :class:`SingleLayerOperator`\\ s over
    one mesh, differing only in degree policy; the quadrature, the
    octree, the density-to-charge map ``W`` (:func:`quadrature_map`)
    and the per-``alpha`` vertex interaction lists depend on none of
    that, so they are computed once here and handed to each operator.
    Operators never change their treecode's charges: every matvec runs
    a compiled plan, which takes the densities explicitly, so sharing
    the octree is safe.
    """

    def __init__(self, mesh: TriangleMesh, n_gauss: int = 6) -> None:
        mesh.validate()
        self.mesh = mesh
        self.n_gauss = n_gauss
        self.points, self.weights, self.element = mesh_quadrature(mesh, n_gauss)
        bary, _ = triangle_rule(n_gauss)
        self.gp_nodes = mesh.triangles[self.element]  # (G, 3)
        self.gp_shape = np.tile(bary, (mesh.n_triangles, 1))  # (G, 3)
        self._tree = None
        self._tree_leaf_size = None
        self._lists: dict[float, object] = {}

    @cached_property
    def source_map(self):
        """The density-to-charge map ``W``, built at the first use and
        shared by every operator on this geometry."""
        return quadrature_map(
            self.weights, self.gp_nodes, self.gp_shape, self.mesh.n_vertices
        )

    def tree_for(self, leaf_size: int):
        """The shared octree (built with the quadrature weights as
        structure charges, exactly as a standalone operator would)."""
        if self._tree is None or self._tree_leaf_size != leaf_size:
            self._tree = build_octree(self.points, self.weights, leaf_size=leaf_size)
            self._tree_leaf_size = leaf_size
            self._lists = {}
        return self._tree

    def lists_for(self, treecode: Treecode, alpha: float):
        """Vertex interaction lists, cached per MAC parameter (the
        traversal reads only tree structure and ``alpha``, never charges
        or degrees)."""
        if alpha not in self._lists:
            with span("treecode.traverse", targets=int(self.mesh.n_vertices)):
                self._lists[alpha] = treecode.traverse(
                    self.mesh.vertices, self_targets=False
                )
        return self._lists[alpha]


class SingleLayerOperator:
    """Single-layer potential operator ``V`` with a treecode matvec.

    Parameters
    ----------
    mesh:
        The boundary mesh (collocation at its vertices).
    n_gauss:
        Gauss points per element (the paper uses 6).
    degree_policy, alpha, leaf_size:
        Treecode configuration (see :class:`~repro.core.treecode.Treecode`).
    plan_budget:
        Memory budget (bytes) for the plan's precomputed operators;
        ``None`` uses :data:`~repro.perf.plan.DEFAULT_MEMORY_BUDGET`.
        ``0`` is the on-the-fly mode: nothing is frozen and every matvec
        rebuilds its rows from geometry.
    tol:
        Target far-field accuracy for the compiled plan (variable-order
        mode, see :meth:`~repro.core.treecode.Treecode.compile_plan`).
        Per-interaction degrees are selected so each collocation
        vertex's Theorem-1 ledger stays at or below ``tol``.  The
        selection is anchored at the quadrature weights (the structure
        charges available "at the time of tree construction"), so the
        guarantee applies to densities with ``|sigma| <= 4 pi`` and
        scales linearly beyond.
    plan_cache:
        ``None`` or ``""`` only: there is no plan store (see
        :func:`~repro.core.treecode.reject_plan_store`).
    geometry:
        A shared :class:`OperatorGeometry` for the same mesh/``n_gauss``,
        reusing its quadrature, octree and interaction lists.

    Attributes
    ----------
    stats:
        Accumulated :class:`~repro.core.treecode.TreecodeStats` over all
        matvec applications (terms evaluated, interaction counts).
    n_matvecs:
        Number of operator applications so far.
    """

    def __init__(
        self,
        mesh: TriangleMesh,
        n_gauss: int = 6,
        degree_policy: DegreePolicy | None = None,
        alpha: float = 0.5,
        leaf_size: int = 32,
        plan_budget: int | None = None,
        tol: float | None = None,
        plan_cache: str | None = None,  # goes at the next benchmark change
        geometry: OperatorGeometry | None = None,
    ) -> None:
        reject_plan_store("plan_cache", plan_cache)
        if geometry is not None:
            if geometry.mesh is not mesh or geometry.n_gauss != n_gauss:
                raise ValueError(
                    "shared OperatorGeometry does not match this mesh/n_gauss"
                )
            self.points, self.weights = geometry.points, geometry.weights
            self.element = geometry.element
            self.gp_nodes, self.gp_shape = geometry.gp_nodes, geometry.gp_shape
            shared_tree = geometry.tree_for(leaf_size)
        else:
            mesh.validate()
            self.points, self.weights, self.element = mesh_quadrature(mesh, n_gauss)
            bary, _ = triangle_rule(n_gauss)
            # Per Gauss point: the 3 nodes of its element and shape values.
            self.gp_nodes = mesh.triangles[self.element]  # (G, 3)
            self.gp_shape = np.tile(bary, (mesh.n_triangles, 1))  # (G, 3)
            shared_tree = None
        self._geometry = geometry
        self.mesh = mesh
        self.n_gauss = n_gauss

        policy = degree_policy if degree_policy is not None else FixedDegree(4)
        self.treecode = Treecode(
            self.points,
            self.weights,  # structure/degree charges: the quadrature weights
            degree_policy=policy,
            alpha=alpha,
            leaf_size=leaf_size,
            tree=shared_tree,
        )
        # Geometry-only interaction lists for the collocation targets.
        if geometry is not None:
            self._lists = geometry.lists_for(self.treecode, alpha)
        else:
            with span("treecode.traverse", targets=int(mesh.n_vertices)):
                self._lists = self.treecode.traverse(mesh.vertices, self_targets=False)
        self.plan_budget = plan_budget
        self.tol = None if tol is None else float(tol)
        self._plan = None
        self.stats = TreecodeStats()
        self.n_matvecs = 0

    @property
    def shape(self) -> tuple[int, int]:
        n = self.mesh.n_vertices
        return (n, n)

    @property
    def source_map(self):
        """The density-to-charge map ``W`` the plan folds: the shared
        geometry's, or this operator's own, built on each use (the plan
        keeps its own Morton-sorted copy)."""
        if self._geometry is not None:
            return self._geometry.source_map
        return quadrature_map(
            self.weights, self.gp_nodes, self.gp_shape, self.mesh.n_vertices
        )

    def _density(self, sigma) -> np.ndarray:
        """``sigma`` as a float array, checked to be ``(V,)`` or ``(V, k)``."""
        sigma = np.asarray(sigma, dtype=np.float64)
        V = self.mesh.n_vertices
        if sigma.ndim not in (1, 2) or sigma.shape[0] != V:
            raise ValueError(
                f"sigma must have shape ({V},) or ({V}, k), got {sigma.shape}"
            )
        return sigma

    def charges_for(self, sigma: np.ndarray) -> np.ndarray:
        """Gauss-point charges for a nodal density ``sigma`` — for the
        direct reference (:meth:`exact_potential`) and residual checks;
        :meth:`matvec` never forms them.

        ``sigma`` may be a ``(V, k)`` batch of stacked densities; the
        result is then a ``(G, k)`` charge batch, column ``j`` exactly
        the single-density charges for ``sigma[:, j]``.
        """
        sigma = self._density(sigma)
        if sigma.ndim == 1:
            dens = np.einsum("gc,gc->g", self.gp_shape, sigma[self.gp_nodes])
            return self.weights * dens / _FOUR_PI
        dens = np.einsum("gc,gck->gk", self.gp_shape, sigma[self.gp_nodes])
        return self.weights[:, None] * dens / _FOUR_PI

    def matvec(self, sigma: np.ndarray) -> np.ndarray:
        """Apply the operator: potential at the vertices for density sigma.

        The first application compiles the frozen geometry, with the
        density-to-charge map ``W`` folded in, into a plan; every
        application is then pure linear algebra over the plan's
        operators, applied to ``sigma`` itself.

        ``sigma`` may be a ``(V, k)`` batch of stacked densities; the
        result is then ``(V, k)``, all columns executed in one batched
        pass.
        """
        with span("bem.matvec", matvec=self.n_matvecs):
            sigma = self._density(sigma)
            if self._plan is None:
                self._plan = self.treecode.compile_plan(
                    targets=self.mesh.vertices,
                    lists=self._lists,
                    memory_budget=self.plan_budget,
                    tol=self.tol,
                    source_map=self.source_map,
                )
            res = self._plan.execute(sigma)
            self.stats.merge(res.stats)
        if is_enabled():
            REGISTRY.counter("bem_matvecs", "boundary-operator applications").inc()
        self.n_matvecs += 1
        return res.potential

    __call__ = matvec

    def near_diagonal(self) -> np.ndarray:
        """Cheap estimate of the collocation matrix diagonal.

        ``A_ii`` is dominated by the elements incident to vertex ``i``
        (the near-singular ``1/r`` contributions), so summing only those
        Gauss points gives a good Jacobi preconditioner at O(G) cost —
        it captures the local-mesh-size variation that makes first-kind
        systems on graded meshes ill-scaled.
        """
        V = self.mesh.n_vertices
        diag = np.zeros(V, dtype=np.float64)
        verts = self.mesh.vertices
        for c in range(3):
            nodes = self.gp_nodes[:, c]  # vertex each Gauss point maps to
            r = np.linalg.norm(verts[nodes] - self.points, axis=1)
            contrib = self.weights * self.gp_shape[:, c] / (_FOUR_PI * r)
            np.add.at(diag, nodes, contrib)
        return diag

    def dense_matrix(self) -> np.ndarray:
        """Exact dense collocation matrix (reference; O(V·G) memory per
        row block — intended for small meshes and tests)."""
        V = self.mesh.n_vertices
        G = self.points.shape[0]
        A = np.zeros((V, V), dtype=np.float64)
        verts = self.mesh.vertices
        chunk = max(1, 4_000_000 // max(G, 1))
        base = self.weights / _FOUR_PI
        for lo in range(0, V, chunk):
            hi = min(lo + chunk, V)
            d = verts[lo:hi, None, :] - self.points[None, :, :]
            r = np.sqrt(np.einsum("vgi,vgi->vg", d, d))
            K = base / r  # (v, G); Gauss points are strictly interior -> r > 0
            # scatter G columns into the 3 nodes of each Gauss point's element
            for c in range(3):
                cols = self.gp_nodes[:, c]
                contrib = K * self.gp_shape[:, c]
                np.add.at(A[lo:hi], (slice(None), cols), contrib)
        return A

    def exact_potential(self, sigma: np.ndarray) -> np.ndarray:
        """Direct (no treecode) application — the accuracy reference."""
        from ..direct import direct_potential

        q = self.charges_for(sigma)
        return direct_potential(self.points, q, targets=self.mesh.vertices)
