"""Additional tests for the parallel plan executor."""

import numpy as np

from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.parallel import evaluate_plan_parallel
from treecode_reference import reference_evaluate


def test_block_count():
    rng = np.random.default_rng(99)
    pts = rng.random((600, 3))
    q = rng.uniform(-1, 1, 600)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    plan = tc.compile_plan()
    par = evaluate_plan_parallel(plan, q, n_threads=1)
    assert par.n_blocks == plan.n_units
    assert par.n_threads == 1
    assert par.wall_time > 0


def test_softened_parallel_matches_serial():
    rng = np.random.default_rng(5)
    pts = rng.random((400, 3))
    q = rng.uniform(0.5, 1.5, 400)
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, softening=0.02)
    plan = tc.compile_plan()
    par = evaluate_plan_parallel(plan, q, n_threads=2)
    np.testing.assert_array_equal(par.potential, plan.execute(q).potential)
    ref = reference_evaluate(tc).potential
    assert np.allclose(par.potential, ref, rtol=1e-9, atol=1e-12)
