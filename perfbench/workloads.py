"""The benchmark's workloads: inputs, evaluators and correctness gates.

Two workloads, each run in its own process:

* ``uniform-cluster`` — uniform points, ±1 charges, ``Treecode``
  defaults (adaptive Theorem-3 degrees, leaf 16) compiled to the
  dual-traversal cluster plan.  M2L does almost all the work.
* ``propeller-gmres`` — the Table-3 propeller surface through
  ``SingleLayerOperator`` defaults (target-major plan, no M2L) and a
  GMRES(10) solve to 1e-6.

Inputs come from the seed alone (:func:`make_inputs`); a workload sees
only the arrays.  Every end-to-end metric is reported on every
workload, so ``solve_s`` carries each workload's own application run:
the propeller's GMRES solve, and on the particles one kick-drift-kick
step of the library's n-body integrator (``LeapfrogIntegrator``), which
rebuilds its treecode from scratch for every force evaluation.

:mod:`endtoend` times the workloads, :mod:`traced` splits them into
layers.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.bem import SingleLayerOperator, gmres, propeller
from repro.core import Treecode
from repro.data.distributions import make_distribution
from repro.direct import direct_gradient, direct_potential
from repro.simulation import LeapfrogIntegrator, SimulationState

WORKLOADS = ("uniform-cluster", "propeller-gmres")

#: end-to-end metric -> unit (``--trace 0``)
E2E_UNITS = {
    "setup_s": "s",
    "oneshot_s": "s",
    "matvec_s": "s",
    "solve_s": "s",
    "batch8_vec_s": "s/vector",
    "rel_err": "1",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (``--trace 1``)
LAYER_UNITS = {
    "tree.build_s": "s",
    "tree.nodes": "count",
    "tree.height": "count",
    "treecode.upward_s": "s",
    "dualtree.traverse_s": "s",
    "dualtree.far_pairs": "count",
    "dualtree.near_pairs": "count",
    "plan.compile_s": "s",
    "plan.memory_mb": "MB",
    "plan.box_pairs": "count",
    "plan.near_blocks": "count",
    "plan.m2l_flops_pred": "flop",
    "plan.p2m_s": "s",
    "plan.far_s": "s",
    "plan.near_s": "s",
    "plan.far_gflops": "GFLOP/s",
    "plan.terms": "count",
    "fmm.first_eval_s": "s",
    "fmm.compile_eval_s": "s",
    "fmm.upward_s": "s",
    "fmm.m2l_s": "s",
    "fmm.l2l_s": "s",
    "fmm.near_s": "s",
    "fmm.plan_mb": "MB",
    "fmm.m2l_count": "count",
    "fmm.pp_pairs": "count",
    "op.build_s": "s",
    "op.first_apply_s": "s",
    "op.compile_apply_s": "s",
    "op.apply_s": "s",
    "gmres.iters": "count",
    "gmres.restarts": "count",
    "gmres.self_s": "s",
    "direct.matvec_s": "s",
    "direct.speedup": "ratio",
    "host.gemm_gflops": "GFLOP/s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: per-layer metrics of layers a workload does not use; they read 0
#: there.  The particles run no GMRES; the propeller's target-major plan
#: has no dual traversal and no M2L, and it does not use the FMM.
OFF_PATH = {
    "uniform-cluster": {"gmres.iters", "gmres.restarts", "gmres.self_s"},
    "propeller-gmres": {
        "dualtree.traverse_s",
        "dualtree.far_pairs",
        "dualtree.near_pairs",
        "plan.box_pairs",
        "plan.m2l_flops_pred",
        "plan.far_gflops",
    }
    | {m for m in LAYER_UNITS if m.startswith("fmm.")},
}

BATCH = 8  #: columns of the batched application
#: charge vectors (densities) per run.  Every run applies each once and
#: pools their error into ``rel_err``; the error of one random vector
#: swings with the few worst-placed boxes it happens to load, so the
#: cheaper matvec pools more
POOL = {"uniform-cluster": 16, "propeller-gmres": 64}
BATCH_TOL = 1e-11  #: batch column vs its single-vector result
SOLVE_TOL = 1e-6  #: GMRES(10) relative residual target

#: relative-error ceilings per workload (about 10x the measured error)
CEILINGS = {
    "uniform-cluster": 1e-3,
    "propeller-gmres": 3e-3,
}
STEP_DT = 1e-4  #: leapfrog time step on the particles
#: ceiling of the un-planned treecode that drives the integrator, which
#: pairs the Theorem-3 degrees with the point-cluster MAC (its velocity
#: kick measures 7e-4, its potentials 1.1-1.8e-3)
UNPLANNED_CEILING = 1e-2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; tests substitute small ones."""

    n_particles: int = 3000
    blade_res: int = 16
    hub_res: int = 16
    n_check: int = 400  #: vertices sampled for the propeller solve's residual check


@dataclass
class Inputs:
    """Everything a workload receives, generated from the seed."""

    charges: np.ndarray  #: (n, POOL) charge vectors (densities on the mesh)
    points: np.ndarray | None = None  #: particle positions
    velocities: np.ndarray | None = None  #: particle velocities for the leapfrog step
    mesh: object | None = None  #: propeller surface (seed-independent)
    rhs: np.ndarray | None = None  #: right-hand side of the propeller solve
    check_idx: np.ndarray | None = None  #: vertices for the solve residual check


def make_inputs(workload: str, seed: int, sizes: Sizes = Sizes()) -> Inputs:
    rng = np.random.default_rng(seed)
    if workload == "propeller-gmres":
        mesh = propeller(blade_res=sizes.blade_res, hub_res=sizes.hub_res)
        V = mesh.n_vertices
        return Inputs(
            charges=rng.standard_normal((V, POOL[workload])),
            # Table 3's unit boundary potential: a seeded right-hand
            # side moves the iteration count (162-228 measured), a
            # constant one keeps it at 218
            rhs=np.ones(V),
            mesh=mesh,
            check_idx=np.sort(rng.choice(V, min(sizes.n_check, V), replace=False)),
        )
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
    n = sizes.n_particles
    # one point cloud for every seed, like the propeller surface: a
    # seeded cloud moves the pair count and the error with it
    points = make_distribution("uniform", n)
    # unit charges with random signs, half of each: with a random net
    # charge its monopole field swings |phi| from seed to seed and the
    # relative error with it (IQR/median 0.33 over ten seeds)
    charges = np.stack(
        [
            np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
            for _ in range(POOL[workload])
        ],
        axis=1,
    )
    return Inputs(
        charges=charges, points=points, velocities=0.1 * rng.standard_normal((n, 3))
    )


def span(rec, name: str):
    """A span on ``rec``, or nothing in an untraced run."""
    return nullcontext() if rec is None else rec.span(name)


class ClusterWorkload:
    #: the step runs the un-planned treecode with gradients, which no
    #: other operation warms, so the warm-up includes one step
    warm_solve = True

    def __init__(self, name: str, inp: Inputs) -> None:
        self.name = name
        self.inp = inp
        self.exact = direct_potential(inp.points, inp.charges)
        self.masses = np.ones(inp.points.shape[0])
        self.kick = self._exact_kick()

    def build(self, q):
        return Treecode(self.inp.points, q).compile_plan(mode="cluster", cache_dir="")

    def fresh(self, q, clock):
        plan = self.build(q)
        clock.mark("setup")
        phi = plan.execute(q).potential
        clock.mark("oneshot")
        return plan, phi

    @staticmethod
    def apply(plan, q):
        return plan.execute(q).potential

    def solve(self):
        """One gravitational leapfrog step of unit masses at the points."""
        state = SimulationState(
            positions=self.inp.points.copy(),
            velocities=self.inp.velocities.copy(),
            masses=self.masses.copy(),
        )
        return LeapfrogIntegrator().run(state, STEP_DT, 1, record_every=0)

    def _exact_kick(self) -> np.ndarray:
        """The step's velocity change under exact forces."""
        x, v, m, dt = self.inp.points, self.inp.velocities, self.masses, STEP_DT
        a0 = direct_gradient(x, m)  # gravity: acceleration = grad sum m/r
        a1 = direct_gradient(x + dt * (v + 0.5 * dt * a0), m)
        return 0.5 * dt * (a0 + a1)

    def check_solve(self, state) -> str | None:
        """Gate for a step: finite, and its velocity kick within the
        un-planned treecode's ceiling of the exact one."""
        if not (np.all(np.isfinite(state.positions)) and np.all(np.isfinite(state.velocities))):
            return "non-finite state"
        kick = state.velocities - self.inp.velocities
        err = float(np.linalg.norm(kick - self.kick) / np.linalg.norm(self.kick))
        if not err <= UNPLANNED_CEILING:
            return f"velocity kick error {err:.3e} above ceiling {UNPLANNED_CEILING:.1e}"
        return None


class PropellerWorkload:
    #: a solve is a fresh operator and warm applications, both warmed by
    #: the fresh evaluator and the applications before it
    warm_solve = False

    def __init__(self, name: str, inp: Inputs) -> None:
        self.name = name
        self.inp = inp
        self.exact = self.new_operator().exact_potential(inp.charges)

    def new_operator(self):
        return SingleLayerOperator(self.inp.mesh, plan_cache="")

    def fresh(self, sigma, clock):
        op = self.new_operator()
        phi = op.matvec(sigma)  # un-planned first application
        clock.mark("oneshot")
        op.matvec(sigma)  # compiles the plan
        clock.mark("setup")
        return op, phi

    @staticmethod
    def apply(op, sigma):
        return op.matvec(sigma)

    def solve(self, rec=None):
        with span(rec, "solve.operator"):
            op = self.new_operator()

        def mv(x):
            with span(rec, "gmres.matvec"):
                return op.matvec(x)

        return gmres(mv, self.inp.rhs, restart=10, tol=SOLVE_TOL, maxiter=1000)

    def check_solve(self, res) -> str | None:
        """Gate for a solve: converged, finite, and the residual of its
        solution under exact summation at the sampled vertices within
        the workload's ceiling."""
        if not res.converged:
            return f"GMRES did not converge ({res.n_iterations} iterations)"
        if not np.all(np.isfinite(res.x)):
            return "non-finite solution"
        op = self.new_operator()
        idx = self.inp.check_idx
        v = direct_potential(
            op.points, op.charges_for(res.x), targets=self.inp.mesh.vertices[idx]
        )
        b = self.inp.rhs[idx]
        err = float(np.linalg.norm(v - b) / np.linalg.norm(b))
        ceiling = CEILINGS[self.name]
        if not err <= ceiling:
            return f"exact residual {err:.3e} above ceiling {ceiling:.1e}"
        return None


def make_workload(name: str, inp: Inputs):
    cls = {
        "uniform-cluster": ClusterWorkload,
        "propeller-gmres": PropellerWorkload,
    }[name]
    return cls(name, inp)
