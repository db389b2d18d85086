"""N-body simulation driver on top of the treecode.

The paper's motivating application ("large scale simulations in
astrophysics ... and molecular dynamics") needs more than a potential
evaluator: a time integrator whose force engine is rebuilt every step.
This module provides a kick-drift-kick leapfrog
(:class:`LeapfrogIntegrator`) with energy diagnostics, so the treecode
is usable as a drop-in n-body engine.  Each force evaluation builds the
step's treecode and runs its dual-traversal cluster plan
(:class:`~repro.perf.cluster.ClusterPlan`, box-box M2L into per-leaf
local expansions) with gradients.

Conventions: "charges" are masses for gravity (``sign = -1``) or real
charges for electrostatics (``sign = +1``); the pairwise interaction
energy is ``sign * G * q_i q_j / r_ij`` and the force is its negative
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core.degree import DegreePolicy
from .core.treecode import Treecode

__all__ = ["SimulationState", "LeapfrogIntegrator"]


@dataclass
class SimulationState:
    """Positions, velocities, and diagnostics of an n-body system."""

    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    time: float = 0.0
    step: int = 0
    #: per-snapshot (time, kinetic, potential, total) rows
    energy_history: list = field(default_factory=list)

    def kinetic_energy(self) -> float:
        v2 = np.einsum("ij,ij->i", self.velocities, self.velocities)
        return float(0.5 * np.sum(self.masses * v2))


class LeapfrogIntegrator:
    """Kick-drift-kick leapfrog with treecode forces.

    Parameters
    ----------
    degree_policy, alpha, leaf_size, softening:
        Treecode configuration, rebuilt every step (particles move);
        forces come from its cluster plan.
    G:
        Coupling constant.
    sign:
        ``-1`` for gravity (attractive, the default), ``+1`` for
        electrostatics.

    The integrator is symplectic: for a stable timestep the total energy
    oscillates but does not drift secularly (up to the treecode force
    error), which :meth:`energy` lets callers verify.
    """

    def __init__(
        self,
        degree_policy: DegreePolicy | None = None,
        alpha: float = 0.5,
        leaf_size: int = 16,
        softening: float = 0.0,
        G: float = 1.0,
        sign: float = -1.0,
    ) -> None:
        if sign not in (-1.0, 1.0, -1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self.degree_policy = degree_policy
        self.alpha = alpha
        self.leaf_size = leaf_size
        self.softening = softening
        self.G = float(G)
        self.sign = float(sign)
        self._last_potential: np.ndarray | None = None

    def _treecode(self, state: SimulationState) -> Treecode:
        return Treecode(
            state.positions,
            state.masses,
            degree_policy=self.degree_policy,
            alpha=self.alpha,
            leaf_size=self.leaf_size,
            softening=self.softening,
        )

    def _evaluate(self, state: SimulationState, compute: str):
        # positions change every step, so a stored plan would never hit
        plan = self._treecode(state).compile_plan(
            mode="cluster", compute=compute, cache_dir=""
        )
        return plan.execute(state.masses)

    def forces(self, state: SimulationState) -> np.ndarray:
        """Accelerations at the current positions (also caches the
        per-particle potential for :meth:`energy`).  Compiles one
        cluster plan."""
        res = self._evaluate(state, "both")
        self._last_potential = res.potential
        # interaction energy sign: gravity = -G q q / r
        return self.sign * (-self.G) * res.gradient

    def energy(self, state: SimulationState) -> tuple[float, float, float]:
        """(kinetic, potential, total) at the current state.

        Uses the cached potential from the last force evaluation (the
        leapfrog evaluates forces exactly at integer steps).
        """
        if self._last_potential is None:
            res = self._evaluate(state, "potential")
            self._last_potential = res.potential
        kin = state.kinetic_energy()
        pot = float(0.5 * self.sign * self.G * np.sum(state.masses * self._last_potential))
        return kin, pot, kin + pot

    def run(
        self,
        state: SimulationState,
        dt: float,
        n_steps: int,
        record_every: int = 1,
    ) -> SimulationState:
        """Advance ``n_steps`` of size ``dt`` (in place) and return the state."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        acc = self.forces(state)
        if not state.energy_history:
            kin, pot, tot = self.energy(state)
            state.energy_history.append((state.time, kin, pot, tot))
        for k in range(n_steps):
            state.velocities += 0.5 * dt * acc
            state.positions += dt * state.velocities
            acc = self.forces(state)
            state.velocities += 0.5 * dt * acc
            state.time += dt
            state.step += 1
            if record_every and state.step % record_every == 0:
                kin, pot, tot = self.energy(state)
                state.energy_history.append((state.time, kin, pot, tot))
        return state

    @staticmethod
    def relative_energy_drift(state: SimulationState) -> float:
        """|E(t) - E(0)| / |E(0)| over the recorded history."""
        if len(state.energy_history) < 2:
            return 0.0
        e0 = state.energy_history[0][3]
        e1 = state.energy_history[-1][3]
        return abs(e1 - e0) / max(abs(e0), 1e-300)
