"""Cluster plans cut their octree at a level a cost model chooses.

``Treecode(leaf_size=None)`` (the default) builds leaves of 16 and lets
each cluster plan price every cut level from one full-depth dual
traversal, then compile the cheapest; an explicit leaf size pins the
full tree.  The Theorem-1 dual bound holds for any accepted box pair at
any cut, so the containment chain is checked at every candidate.
"""

import numpy as np
import pytest

from repro import FixedDegree, Treecode
from repro.data.distributions import make_distribution
from repro.direct import pairwise_potential
from repro.obs import REGISTRY, journal, tracing
from repro.perf import operators
from repro.perf.cluster import ClusterPlan, _box_view, _cut_terms, _cut_view
from repro.tree.dualtree import dual_traverse


def _benchmark_cloud(n=3000):
    """``perfbench``'s uniform-cluster cloud: ±1 charges, half of each."""
    pts = make_distribution("uniform", n)
    q = np.where(np.random.default_rng(1).permutation(n) < n // 2, -1.0, 1.0)
    return pts, q


@pytest.fixture(scope="module")
def bench_cloud():
    return _benchmark_cloud()


def test_benchmark_cloud_potential_cuts_coarse_gradient_stays_fine(bench_cloud):
    pts, q = bench_cloud
    tc = Treecode(pts, q)
    assert tc.leaf_size is None and tc.tree.height == 5
    pot = tc.compile_plan(mode="cluster", cache_dir="")
    both = tc.compile_plan(mode="cluster", compute="both", cache_dir="")
    assert pot.cut_level == 2
    assert both.cut_level > 2
    # the same inputs always choose the same cut
    again = Treecode(pts, q).compile_plan(mode="cluster", cache_dir="")
    assert again.cut_level == 2 and again.cut_costs == pot.cut_costs
    for plan in (pot, both):
        cands = [c["cut"] for c in plan.cut_costs]
        assert cands == list(range(1, tc.tree.height))
        best = min((c for c in plan.cut_costs if c["fits"]), key=lambda c: c["seconds"])
        assert best["cut"] == plan.cut_level
        assert f"cut={plan.cut_level} (chosen)" in plan.describe()
    exact = pairwise_potential(pts, pts, q, exclude=np.arange(pts.shape[0]))
    res = pot.execute(q).potential
    assert np.linalg.norm(res - exact) / np.linalg.norm(exact) < 1e-3


def test_explicit_leaf_size_pins_full_depth(bench_cloud):
    pts, q = bench_cloud
    pinned = Treecode(pts, q, leaf_size=16)
    chosen = Treecode(pts, q)
    # the same tree: leaf_size=None builds leaves of 16
    assert np.array_equal(pinned.tree.start, chosen.tree.start)
    plan = pinned.compile_plan(mode="cluster", cache_dir="")
    assert plan.cut_level == pinned.tree.height - 1
    assert plan.cut_costs == []
    assert "(pinned)" in plan.describe() and plan.n_box_pairs > 0
    # target-major plans ignore the knob
    a = pinned.compile_plan(cache_dir="").execute(q).potential
    b = chosen.compile_plan(cache_dir="").execute(q).potential
    assert np.array_equal(a, b)


def test_cut_view_keeps_node_prefix(bench_cloud):
    pts, q = bench_cloud
    tree = Treecode(pts, q).tree
    full, _, _ = _box_view(tree)
    for cut in range(1, tree.height):
        view, ic, unit = _cut_view(full, cut)
        hi = tree.level_ranges[cut][1]
        assert view.n_nodes == hi and view.height == cut + 1
        assert np.all(view.n_children[view.level == cut] == 0)
        np.testing.assert_array_equal(view.radius, full.radius[:hi])
        np.testing.assert_array_equal(view.start, tree.start[:hi])
        leaves = view.leaf_ids()
        assert (view.end[leaves] - view.start[leaves]).sum() == tree.n_particles
        np.testing.assert_allclose(
            view.domain_lo + ic * unit, view.center_geom, rtol=0, atol=1e-14
        )
    with pytest.raises(ValueError, match="cut"):
        _cut_view(full, tree.height)


def test_priced_terms_match_every_cut_traversal(bench_cloud):
    """One full-depth traversal prices every cut: its far pairs above
    the cut are the cut traversal's, and the rest of the particle
    pairs are near entries (the partition property)."""
    pts, q = bench_cloud
    tc = Treecode(pts, q)
    full, _, _ = _box_view(tc.tree)
    pairs = dual_traverse(full, tc.alpha)
    terms = _cut_terms(full, pairs, tc.p_eval, grad=False)
    for i, cut in enumerate(terms["cut"]):
        view, _, _ = _cut_view(full, int(cut))
        got = dual_traverse(view, tc.alpha)
        cnt = view.end - view.start
        near = int(np.sum(cnt[got.near_src] * cnt[got.near_tgt]))
        assert terms["pairs"][i] == got.n_far
        assert terms["near"][i] == near
        plan = ClusterPlan(tc, tc.tree.points, cut=int(cut))
        assert plan._near_cum[-1] == near and plan.n_box_pairs == got.n_far


GEOMETRIES = {
    "uniform": lambda n, r: r.random((n, 3)),
    "gaussian": lambda n, r: make_distribution("gaussian", n, seed=3),
    "collinear": lambda n, r: np.stack([np.zeros(n), np.zeros(n), r.random(n)], 1),
    "coincident": lambda n, r: np.tile(r.random(3), (n, 1)),
    "duplicate": lambda n, r: np.concatenate([r.random((n // 2, 3))] * 2),
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_theorem1_chain_at_every_cut(geometry):
    """measured error <= a-posteriori ledger <= compile-time prediction
    <= tol, at every candidate cut."""
    rng = np.random.default_rng(9)
    n = 400
    pts = GEOMETRIES[geometry](n, rng)
    q = rng.uniform(-1.0, 1.0, n)
    exact = pairwise_potential(pts, pts, q, exclude=np.arange(n))
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    tol = 1e-6
    slack = 1e-12 * np.abs(exact).max()  # summation-order rounding
    for cut in range(1, max(2, tc.tree.height)):
        plan = ClusterPlan(
            tc, tc.tree.points, tol=tol, accumulate_bounds=True,
            cut=min(cut, tc.tree.height - 1),
        )
        res = plan.execute(q)
        err = np.abs(res.potential - exact)
        assert np.all(err <= res.error_bound + slack), (geometry, cut)
        ledger = float(res.error_bound.max())
        assert ledger <= plan.predicted_ledger_max * (1 + 1e-9) + 1e-300
        assert plan.predicted_ledger_max <= tol * (1 + 1e-12)
        fixed = ClusterPlan(
            tc, tc.tree.points, accumulate_bounds=True, cut=plan.cut_level
        )
        fres = fixed.execute(q)
        assert np.all(np.abs(fres.potential - exact) <= fres.error_bound + slack)


def test_plan_depth_event_once_per_compile(bench_cloud, tmp_path):
    pts, q = bench_cloud
    tc = Treecode(pts, q)
    path = tmp_path / "j.jsonl"
    REGISTRY.reset()
    tracing.get_tracer().clear()
    tracing.enable()
    prev = journal.set_journal(journal.Journal(path))
    try:
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        Treecode(pts, q, leaf_size=16).compile_plan(mode="cluster", cache_dir="")
        spans = [s for s in tracing.get_tracer().events() if s["name"] == "plan.compile"]
        counters = REGISTRY.to_dict()["counters"]
    finally:
        journal.set_journal(prev).close()
        tracing.set_enabled(False)
        tracing.get_tracer().clear()
        REGISTRY.reset()
    lines = [e for e in journal.read_journal(path) if e["event"] == "plan_depth"]
    assert len(lines) == 1  # the pinned plan prices nothing
    data = lines[0]["data"]
    assert data["chosen"] == plan.cut_level and data["height"] == tc.tree.height - 1
    assert [c["cut"] for c in data["candidates"]] == list(range(1, tc.tree.height))
    for c in data["candidates"]:
        assert {"near_entries", "m2l_flops", "seconds"} <= set(c)
    assert sum(v for k, v in counters.items() if k.startswith("plan_depth_choices")) == 1
    args = spans[0]["args"]
    assert args["cut"] == plan.cut_level and args["predicted_s"] > 0
    assert args["near_entries"] == plan._near_cum[-1]


@pytest.mark.parametrize("softening", [0.0, 0.05])
@pytest.mark.parametrize("grad", [False, True])
def test_assemble_near_blocks_bitwise_per_entry(monkeypatch, softening, grad):
    """Broadcast blocks (rows sharing a source sequence) hold exactly the
    per-entry kernel's values, coincident points and self pairs
    included, whether the rows see one list or several."""
    rng = np.random.default_rng(4)
    n = 900
    pts = rng.random((n, 3))
    pts[100:140] = pts[100]  # coincident points inside a block
    xyz = np.ascontiguousarray(pts.T)
    # rows 0..599 in runs of 30 rows seeing three or two lists of 150
    off = np.arange(0, n + 1, 150)
    rows = np.repeat(np.arange(600), 3)
    lists = np.stack([(np.arange(600) // 60 + s) % 6 for s in (0, 2, 4)], 1).ravel()
    keep = ~((rows % 60 >= 30) & (np.arange(rows.size) % 3 == 2))
    args = (xyz, xyz, rows[keep], lists[keep], np.arange(n), off, True, softening, grad)
    off_e = np.append(0, np.cumsum(np.full(keep.sum(), 150)))
    assert len(operators._blocks(rows[keep], lists[keep], off_e)) == 20
    got = operators.assemble_near(*args)
    monkeypatch.setattr(operators, "_BLOCK_MIN", 1 << 40)
    want = operators.assemble_near(*args)
    for a, b in zip(got, want):
        if b is not None:
            assert np.array_equal(a, b)
    assert np.array_equal(got[1][:1], want[1][:1])
    # self pairs and coincident pairs are exact zeros
    K = operators.csr(got[2], got[1], got[0], n).toarray()
    assert np.all(np.diag(K)[:600] == 0.0)
    if softening == 0.0:
        assert K[100, 101] == 0.0
