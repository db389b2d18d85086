"""Tests for the leapfrog n-body driver."""

import numpy as np
import pytest

from repro import FixedDegree, LeapfrogIntegrator, SimulationState
from repro.data.distributions import plummer


def make_state(n=300, seed=0):
    rng = np.random.default_rng(seed)
    pos = plummer(n, seed=seed + 1, scale=0.1).copy()
    vel = rng.normal(scale=0.05, size=(n, 3))
    vel -= vel.mean(axis=0)
    return SimulationState(
        positions=pos, velocities=vel, masses=np.full(n, 1.0 / n)
    )


def test_energy_conservation_gravity():
    state = make_state()
    integ = LeapfrogIntegrator(
        degree_policy=FixedDegree(6), alpha=0.4, softening=0.01, sign=-1.0
    )
    integ.run(state, dt=2e-4, n_steps=10)
    drift = LeapfrogIntegrator.relative_energy_drift(state)
    assert drift < 1e-2
    assert state.step == 10
    assert state.time == pytest.approx(10 * 2e-4)
    assert len(state.energy_history) == 11


def test_gravitational_energy_negative_for_bound_system():
    state = make_state()
    integ = LeapfrogIntegrator(degree_policy=FixedDegree(6), softening=0.01)
    integ.forces(state)
    kin, pot, tot = integ.energy(state)
    assert pot < 0  # attractive self-gravity
    assert kin > 0
    assert tot == pytest.approx(kin + pot)


def test_time_reversibility():
    """Leapfrog is time-reversible: integrate forward then backward
    (negated velocities) and recover the initial positions."""
    state = make_state(n=150)
    pos0 = state.positions.copy()
    integ = LeapfrogIntegrator(degree_policy=FixedDegree(8), alpha=0.3, softening=0.02)
    integ.run(state, dt=5e-4, n_steps=5, record_every=0)
    state.velocities *= -1.0
    integ.run(state, dt=5e-4, n_steps=5, record_every=0)
    assert np.allclose(state.positions, pos0, atol=1e-7)


def test_momentum_conservation():
    """Treecode forces are not exactly pairwise-antisymmetric, but total
    momentum must stay near zero for a balanced system."""
    state = make_state(n=200)
    integ = LeapfrogIntegrator(degree_policy=FixedDegree(6), alpha=0.4, softening=0.01)
    p0 = np.abs((state.masses[:, None] * state.velocities).sum(axis=0)).max()
    integ.run(state, dt=2e-4, n_steps=5, record_every=0)
    p1 = np.abs((state.masses[:, None] * state.velocities).sum(axis=0)).max()
    assert p1 < p0 + 1e-4


def test_repulsive_sign():
    """sign=+1 (electrostatics, like charges): particles fly apart —
    mean pairwise distance grows."""
    rng = np.random.default_rng(3)
    pos = 0.5 + rng.normal(scale=0.02, size=(50, 3))
    state = SimulationState(
        positions=pos.copy(),
        velocities=np.zeros((50, 3)),
        masses=np.ones(50),
    )
    integ = LeapfrogIntegrator(degree_policy=FixedDegree(6), sign=+1.0, softening=0.005)
    d0 = np.linalg.norm(pos - pos.mean(axis=0), axis=1).mean()
    integ.run(state, dt=1e-5, n_steps=5, record_every=0)
    d1 = np.linalg.norm(state.positions - state.positions.mean(axis=0), axis=1).mean()
    assert d1 > d0


def test_validation():
    state = make_state(n=50)
    integ = LeapfrogIntegrator()
    with pytest.raises(ValueError):
        integ.run(state, dt=0.0, n_steps=1)
    with pytest.raises(ValueError):
        integ.run(state, dt=1e-3, n_steps=-1)
    with pytest.raises(ValueError):
        LeapfrogIntegrator(sign=0.5)


def test_zero_steps_noop():
    state = make_state(n=50)
    pos0 = state.positions.copy()
    LeapfrogIntegrator(degree_policy=FixedDegree(4)).run(state, dt=1e-3, n_steps=0)
    assert np.array_equal(state.positions, pos0)
    assert state.step == 0


def test_each_force_evaluation_compiles_one_cluster_plan(tmp_path):
    from repro.obs import journal
    from repro.obs.journal import Journal, read_journal

    state = make_state(n=200)
    integ = LeapfrogIntegrator(degree_policy=FixedDegree(5), softening=0.01)
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        journal.set_journal(j)
        try:
            for _ in range(2):
                integ.forces(state)
                state.positions += 1e-3 * state.velocities
        finally:
            journal.set_journal(None)
    modes = [
        e["data"]["mode"] for e in read_journal(str(path)) if e["event"] == "plan_compile"
    ]
    assert modes == ["cluster", "cluster"]


def test_step_kick_no_worse_than_target_major_forces():
    """One step of unit masses on a 1,000-point uniform cloud: the
    velocity kick from cluster-plan forces is at least as close to the
    exact kick as one from target-major forces (``Treecode.evaluate``)."""
    from repro import Treecode
    from repro.direct import direct_gradient

    rng = np.random.default_rng(1)
    n, dt = 1000, 1e-3
    x = rng.random((n, 3))
    v = 0.1 * rng.standard_normal((n, 3))
    m = np.ones(n)

    def kick(accel):  # gravity: acceleration = grad sum m/r
        a0 = accel(x)
        return 0.5 * dt * (a0 + accel(x + dt * (v + 0.5 * dt * a0)))

    exact = kick(lambda y: direct_gradient(y, m))
    target = kick(lambda y: Treecode(y, m).evaluate(compute="both").gradient)
    state = SimulationState(positions=x.copy(), velocities=v.copy(), masses=m.copy())
    LeapfrogIntegrator().run(state, dt, 1, record_every=0)
    cluster = state.velocities - v

    def err(k):
        return np.linalg.norm(k - exact) / np.linalg.norm(exact)

    assert err(cluster) <= err(target)
    assert err(cluster) < 1e-3
