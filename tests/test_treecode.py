"""Tests for the Barnes-Hut treecode engine."""

import numpy as np
import pytest

from repro.core.degree import AdaptiveChargeDegree, FixedDegree, LevelDegree
from repro.core.treecode import Treecode
from repro.direct import direct_gradient, direct_potential
from treecode_reference import assert_matches_reference, reference_evaluate


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_potential_accuracy(small_cloud):
    pts, q = small_cloud
    ref = direct_potential(pts, q)
    tc = Treecode(pts, q, degree_policy=FixedDegree(6), alpha=0.5)
    res = tc.evaluate()
    assert rel_err(res.potential, ref) < 1e-3


def test_error_decreases_with_degree(small_cloud):
    pts, q = small_cloud
    ref = direct_potential(pts, q)
    errs = [
        rel_err(Treecode(pts, q, degree_policy=FixedDegree(p), alpha=0.5).evaluate().potential, ref)
        for p in (1, 3, 6, 9)
    ]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_error_decreases_with_alpha(small_cloud):
    pts, q = small_cloud
    ref = direct_potential(pts, q)
    errs = [
        rel_err(Treecode(pts, q, degree_policy=FixedDegree(4), alpha=a).evaluate().potential, ref)
        for a in (0.8, 0.5, 0.3)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_adaptive_beats_fixed_at_same_p0(positive_cloud):
    pts, q = positive_cloud
    ref = direct_potential(pts, q)
    e_fix = rel_err(
        Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5).evaluate().potential, ref
    )
    e_ada = rel_err(
        Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5)
        .evaluate()
        .potential,
        ref,
    )
    assert e_ada < e_fix


def test_error_bound_is_rigorous(small_cloud):
    """The accumulated Theorem-1 bound must dominate the observed error
    at every single target."""
    pts, q = small_cloud
    ref = direct_potential(pts, q)
    for policy in (FixedDegree(3), AdaptiveChargeDegree(p0=3, alpha=0.5)):
        tc = Treecode(pts, q, degree_policy=policy, alpha=0.5)
        res = tc.evaluate(accumulate_bounds=True)
        assert np.all(np.abs(res.potential - ref) <= res.error_bound + 1e-12)


def test_external_targets(positive_cloud, rng):
    pts, q = positive_cloud
    tgt = rng.random((50, 3)) * 0.5 + 2.0  # outside the cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(7), alpha=0.3)
    res = tc.evaluate(targets=tgt)
    ref = direct_potential(pts, q, targets=tgt)
    assert rel_err(res.potential, ref) < 1e-6


def test_gradient_evaluation(small_cloud):
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(7), alpha=0.4)
    res = tc.evaluate(compute="both")
    ref = direct_gradient(pts, q)
    assert res.gradient is not None
    assert rel_err(res.gradient, ref) < 1e-4


def test_stats_accounting(small_cloud):
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    res = tc.evaluate()
    s = res.stats
    assert s.n_targets == len(q)
    assert s.n_pc_interactions > 0
    assert s.n_pp_pairs > 0
    # terms = interactions * (p+1)^2 for a fixed-degree run
    assert s.n_terms == s.n_pc_interactions * 25
    assert sum(s.interactions_by_degree.values()) == s.n_pc_interactions
    assert sum(s.interactions_by_level.values()) == s.n_pc_interactions


def test_adaptive_uses_larger_degrees_up_the_tree(positive_cloud):
    pts, q = positive_cloud
    tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5)
    res = tc.evaluate()
    degrees = sorted(res.stats.interactions_by_degree)
    assert len(degrees) > 1  # more than one degree actually used
    assert degrees[0] == 4


def test_results_in_original_order(rng):
    """Output must not be in Morton order."""
    pts = rng.random((200, 3))
    q = rng.uniform(0.5, 1, 200)
    ref = direct_potential(pts, q)
    res = Treecode(pts, q, degree_policy=FixedDegree(8), alpha=0.4).evaluate()
    # per-particle agreement only holds if the ordering matches
    assert np.allclose(res.potential, ref, rtol=1e-4)


def test_set_charges_consistency(small_cloud, rng):
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(6), alpha=0.5)
    q2 = rng.uniform(-1, 1, len(q))
    tc.set_charges(q2)
    res = tc.evaluate()
    ref = direct_potential(pts, q2)
    assert rel_err(res.potential, ref) < 2e-3


def test_set_charges_rebuilds_aggregates(small_cloud):
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4))
    tc.set_charges(2.0 * q)
    assert tc.tree.abs_charge[0] == pytest.approx(2.0 * np.abs(q).sum())
    with pytest.raises(ValueError):
        tc.set_charges(np.zeros(3))


@pytest.mark.parametrize(
    "policy",
    [FixedDegree(5), AdaptiveChargeDegree(p0=3, alpha=0.5)],
    ids=["fixed", "adaptive"],
)
def test_evaluate_matches_reference(small_cloud, rng, policy):
    """evaluate (a fully spilled plan) against the per-pair reference,
    at the source points and at external targets."""
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=policy, alpha=0.5)
    for targets in (None, rng.random((80, 3)) * 1.5 - 0.25):
        res = tc.evaluate(targets, compute="both", accumulate_bounds=True)
        ref = reference_evaluate(tc, targets, compute="both", accumulate_bounds=True)
        assert_matches_reference(res, ref)


def test_traversal_covers_every_source_once(small_cloud):
    """For each target, every source particle contributes exactly once:
    through exactly one accepted cluster or one near-field leaf."""
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    tree = tc.tree
    tgt = tree.points[:5]
    lists = tc.traverse(tgt, self_targets=False)
    n = tree.n_particles
    for t in range(5):
        covered = np.zeros(n, dtype=int)
        sel = lists.far_targets == t
        for node in lists.far_nodes[sel]:
            covered[tree.start[node] : tree.end[node]] += 1
        for leaf, tids in lists.near:
            if t in tids:
                covered[tree.start[leaf] : tree.end[leaf]] += 1
        assert np.all(covered == 1)


def test_mac_well_separation(small_cloud):
    """Every accepted (cluster, target) pair satisfies radius <= alpha*dist."""
    pts, q = small_cloud
    alpha = 0.6
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=alpha)
    tree = tc.tree
    lists = tc.traverse(tree.points, self_targets=True)
    d = np.linalg.norm(
        tree.points[lists.far_targets] - tree.center_exp[lists.far_nodes], axis=1
    )
    assert np.all(tree.radius[lists.far_nodes] <= alpha * d * (1 + 1e-12))
    assert np.all(d > 0)


def test_invalid_parameters(small_cloud):
    pts, q = small_cloud
    with pytest.raises(ValueError):
        Treecode(pts, q, alpha=1.0)
    with pytest.raises(ValueError):
        Treecode(pts, q, alpha=0.0)
    tc = Treecode(pts, q, degree_policy=FixedDegree(3))
    with pytest.raises(ValueError):
        tc.evaluate(compute="everything")
    with pytest.raises(ValueError):
        tc.evaluate(targets=np.zeros((5, 2)))


def test_level_degree_policy_runs(small_cloud):
    pts, q = small_cloud
    ref = direct_potential(pts, q)
    tc = Treecode(pts, q, degree_policy=LevelDegree(p0=4, alpha=0.5), alpha=0.5)
    assert rel_err(tc.evaluate().potential, ref) < 1e-3


def test_describe(small_cloud):
    pts, q = small_cloud
    tc = Treecode(pts, q, degree_policy=FixedDegree(4))
    s = tc.describe()
    assert "FixedDegree" in s and "n=300" in s


def test_tiny_system():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    q = np.array([1.0, -2.0, 0.5])
    res = Treecode(pts, q, degree_policy=FixedDegree(4)).evaluate()
    ref = direct_potential(pts, q)
    assert np.allclose(res.potential, ref, rtol=1e-12)


def test_coincident_points_do_not_crash():
    pts = np.concatenate([np.full((10, 3), 0.5), np.random.default_rng(0).random((100, 3))])
    q = np.ones(110)
    res = Treecode(pts, q, degree_policy=FixedDegree(4), max_depth=8).evaluate()
    assert np.all(np.isfinite(res.potential))
