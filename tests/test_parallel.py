"""Tests for the parallel runtime: partitioning, executors, machine model."""

import numpy as np
import pytest

from repro.core.degree import AdaptiveChargeDegree, FixedDegree
from repro.core.treecode import Treecode
from repro.parallel import (
    MachineModel,
    evaluate_plan_parallel,
    make_blocks,
    profile_blocks,
    schedule_blocks,
    simulate,
)
from repro.parallel.partition import translation_cost
from treecode_reference import reference_evaluate


@pytest.fixture
def built(rng):
    pts = rng.random((800, 3))
    q = rng.uniform(-1, 1, 800)
    return pts, q, Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)


def test_make_blocks_partition(rng):
    pts = rng.random((503, 3))
    blocks = make_blocks(pts, 64)
    assert len(blocks) == 8
    all_idx = np.concatenate(blocks)
    assert sorted(all_idx.tolist()) == list(range(503))


def test_make_blocks_orderings(rng):
    pts = rng.random((256, 3))
    for ordering in ("hilbert", "morton", "input", "random"):
        blocks = make_blocks(pts, 32, ordering=ordering)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(256))
    with pytest.raises(ValueError):
        make_blocks(pts, 32, ordering="zigzag")
    with pytest.raises(ValueError):
        make_blocks(pts, 0)


def test_hilbert_blocks_are_compact(rng):
    """Hilbert blocks must have much smaller spatial extent than random."""
    pts = rng.random((4096, 3))

    def mean_extent(blocks):
        return np.mean([pts[b].std(axis=0).sum() for b in blocks])

    assert mean_extent(make_blocks(pts, 64, "hilbert")) < 0.5 * mean_extent(
        make_blocks(pts, 64, "random")
    )


def test_profile_matches_engine_stats(built):
    pts, q, tc = built
    res = tc.evaluate()
    prof = profile_blocks(tc, make_blocks(pts, 32))
    assert prof.compute_terms.sum() == pytest.approx(res.stats.n_terms)
    assert prof.compute_pairs.sum() == pytest.approx(res.stats.n_pp_pairs)
    assert np.all(prof.fetch_terms <= prof.compute_terms + 1e-9)


def test_parallel_matches_serial(built):
    pts, q, tc = built
    plan = tc.compile_plan()
    serial = plan.execute(q).potential
    for nt in (1, 3):
        par = evaluate_plan_parallel(plan, q, n_threads=nt)
        np.testing.assert_array_equal(par.potential, serial)
        assert par.stats.n_targets == len(q)
    # the plan regroups the per-pair sums: equal to rounding only
    ref = reference_evaluate(tc).potential
    assert np.allclose(par.potential, ref, rtol=1e-9, atol=1e-12)
    with pytest.raises(ValueError):
        evaluate_plan_parallel(plan, q, n_threads=0)


def test_parallel_stats_conserved(built):
    pts, q, tc = built
    serial = reference_evaluate(tc)
    par = evaluate_plan_parallel(tc.compile_plan(), q, n_threads=2)
    assert par.stats.n_terms == serial.stats.n_terms
    assert par.stats.n_pp_pairs == serial.stats.n_pp_pairs


def test_schedule_strategies():
    costs = np.array([5.0, 1.0, 1.0, 1.0, 4.0, 4.0])
    for strat in ("cyclic", "lpt", "contiguous"):
        a = schedule_blocks(costs, 3, strat)
        assert a.shape == (6,)
        assert a.min() >= 0 and a.max() < 3
    # LPT must balance better than contiguous here
    def makespan(a):
        return np.bincount(a, weights=costs, minlength=3).max()

    assert makespan(schedule_blocks(costs, 3, "lpt")) <= makespan(
        schedule_blocks(costs, 3, "contiguous")
    )
    with pytest.raises(ValueError):
        schedule_blocks(costs, 3, "magic")


def test_simulation_invariants(built):
    pts, q, tc = built
    prof = profile_blocks(tc, make_blocks(pts, 32))
    s1 = simulate(prof, MachineModel(n_procs=1))
    assert s1.speedup == pytest.approx(1.0)
    for P in (4, 16, 32):
        s = simulate(prof, MachineModel(n_procs=P))
        assert 0 < s.speedup <= P
        assert 0 < s.efficiency <= 1.0
        assert s.proc_times.shape == (P,)
        # work conservation: parallel compute+fetch >= serial compute
        assert s.proc_times.sum() >= s.serial_time * (1 - 1e-12)


def test_speedup_grows_with_procs(built):
    pts, q, tc = built
    prof = profile_blocks(tc, make_blocks(pts, 16))
    sp = [simulate(prof, MachineModel(n_procs=P)).speedup for P in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(sp, sp[1:]))


def test_adaptive_fetches_more_data(rng):
    """The paper: 'the new algorithm fetches longer multipole series' —
    adaptive degrees increase the per-block fetch volume."""
    pts = rng.random((1500, 3))
    q = rng.uniform(0.5, 1.5, 1500)
    blocks = make_blocks(pts, 64)
    tc_f = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    tc_a = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5)
    f = profile_blocks(tc_f, blocks).fetch_terms.sum()
    a = profile_blocks(tc_a, blocks).fetch_terms.sum()
    assert a > f


def test_machine_model_validation():
    with pytest.raises(ValueError):
        MachineModel(n_procs=0)
    with pytest.raises(ValueError):
        MachineModel(cache_reuse=1.5)


class TestBackendSelection:
    def test_translation_cost_models(self):
        p = np.array([2, 7, 20])
        np.testing.assert_array_equal(translation_cost(p), (p + 1.0) ** 4)
