"""Cluster plans cut their octree at a level a cost model chooses.

``Treecode(leaf_size=None)`` (the default) builds leaves of 16 and lets
each cluster plan price every cut level from one full-depth dual
traversal, then compile the cheapest; an explicit leaf size pins the
full tree.  The Theorem-1 dual bound holds for any accepted box pair at
any cut: ``tests/test_conformance.py`` checks the chain at every cut.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Treecode
from repro.data.distributions import make_distribution
from repro.direct import pairwise_potential
from repro.fmm.engine import UniformFMM
from repro.obs import REGISTRY, journal, tracing
from repro.perf import operators
from repro.perf.cluster import ClusterPlan, _box_view, _cut_terms, _cut_view
from repro.tree.dualtree import VList, dual_traverse


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
        assert {"near_entries", "near_mirror_entries", "m2l_flops", "seconds"} <= set(c)
    # every leaf of the chosen cut is one dense block: the predicted
    # copies are the plan's
    chosen = next(c for c in data["candidates"] if c["cut"] == plan.cut_level)
    assert chosen["near_mirror_entries"] == plan.near_mirror_entries
    assert sum(v for k, v in counters.items() if k.startswith("plan_depth_choices")) == 1
    args = spans[0]["args"]
    assert args["cut"] == plan.cut_level and args["predicted_s"] > 0
    assert args["near_entries"] == plan._near_cum[-1]
    # a fallback to the CSR kernel shows: blocks are counted beside it
    assert args["near_block_entries"] == plan.near_block_entries > 0
    assert f"near_block_entries={plan.near_block_entries}," in plan.describe()
    # so are the entries the mirrored assembly copied
    assert args["near_mirror_entries"] == plan.near_mirror_entries > 0
    assert f"near_mirror_entries={plan.near_mirror_entries}," in plan.describe()


def test_only_cluster_potential_plans_mirror(bench_cloud):
    """Target-major near lists are not symmetric, a mapped plan's folded
    rows are no leaf's, and a gradient field is evaluated whole: none
    copies an entry."""
    pts, q = bench_cloud
    tc = Treecode(pts, q)
    identity = sp.identity(pts.shape[0], format="csr")
    for plan in (
        tc.compile_plan(cache_dir=""),
        tc.compile_plan(source_map=identity, cache_dir=""),
        ClusterPlan(tc, tc.tree.points, compute="both", cut=2),
    ):
        assert plan.near_mirror_entries == 0
        assert "near_mirror_entries=0," in plan.describe()


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
    # the blocks it returns are those rows, 30 at a time
    assert np.array_equal(got[4], np.stack([np.arange(0, 600, 30)] * 2, 1) + [0, 30])
    monkeypatch.setattr(operators, "_BLOCK_MIN", 1 << 40)
    want = operators.assemble_near(*args)
    assert want[4].shape == (0, 2)
    for a, b in zip(got[:4], want[:4]):
        if b is not None:
            assert np.array_equal(a, b)
    assert np.array_equal(got[1][:1], want[1][:1])
    # self pairs and coincident pairs are exact zeros
    K = operators.csr(got[2], got[1], got[0], n).toarray()
    assert np.all(np.diag(K)[:600] == 0.0)
    if softening == 0.0:
        assert K[100, 101] == 0.0


def _mirror_case(case, softening, compute, **kw):
    """A 2000-point cluster plan whose near leaves are dense blocks."""
    n = 2000
    q = np.random.default_rng(6).uniform(-1.0, 1.0, n)
    if case == "fmm-vlist":
        tc = UniformFMM(make_distribution("uniform", n), q, level=2).tc
        return tc.compile_plan(mode="cluster", compute=compute, criterion=VList(), cache_dir="")
    if case == "gaussian-chosen":
        pts = make_distribution("gaussian", n, seed=5)
        pts[500:530] = pts[500]  # a coincident cluster inside one leaf
        tc = Treecode(pts, q, softening=softening)
        return tc.compile_plan(mode="cluster", compute=compute, cache_dir="")
    tc = Treecode(make_distribution("uniform", n), q, softening=softening)
    return ClusterPlan(tc, tc.tree.points, compute=compute, cut=2, **kw)


def _near_arrays(plan):
    return (plan._near_indptr, plan._near_indices, plan._near_K.data, plan._near_G)


MIRROR_CASES = [
    (case, softening)
    for case in ("uniform-cut2", "gaussian-chosen", "partial")
    for softening in (0.0, 0.05)
] + [("fmm-vlist", 0.0)]


@pytest.mark.parametrize("compute", ["potential", "both"])
@pytest.mark.parametrize("case,softening", MIRROR_CASES)
def test_mirrored_near_field_is_bitwise(monkeypatch, case, softening, compute):
    """A potential cluster plan evaluates one tile per near leaf pair
    and copies the other as its transpose: the frozen near field is
    bitwise the one evaluated tile by tile (blocks included) and the
    per-entry kernel's, coincident points and self pairs included.  A
    partial budget mirrors only the pairs inside its frozen prefix.  A
    gradient plan (``"both"``) mirrors nothing and is bitwise too."""
    kw = {}
    if case == "partial":
        full = _mirror_case(case, softening, compute)
        m = full._near_units.shape[0]
        kw["memory_budget"] = (12 + 24 * (compute == "both")) * int(full._near_cum[m // 2])
    plan = _mirror_case(case, softening, compute, **kw)
    assert (plan.near_mirror_entries > 0) == (compute == "potential")
    monkeypatch.setattr(operators, "_mirror_layout", lambda *a: ({}, []))
    tiles = _mirror_case(case, softening, compute, **kw)
    assert tiles.near_mirror_entries == 0
    assert np.array_equal(plan._near_blocks, tiles._near_blocks)
    monkeypatch.setattr(operators, "_BLOCK_MIN", 1 << 40)
    per_entry = _mirror_case(case, softening, compute, **kw)
    assert len(per_entry._near_blocks) == 0
    for got, a, b in zip(_near_arrays(plan), _near_arrays(tiles), _near_arrays(per_entry)):
        assert (got is None) == (a is None) == (b is None)
        if got is not None:
            assert got.dtype == a.dtype == b.dtype
            assert np.array_equal(got, a) and np.array_equal(got, b)
    if case == "partial":
        # the frozen prefix and the re-assembled rest are the rows of
        # the fully frozen field
        assert 0 < plan.n_near_precomputed < m
        if compute == "potential":
            assert 0 < plan.near_mirror_entries < full.near_mirror_entries
        r0 = int(plan._near_units[plan.n_near_precomputed, 0])
        ptr, *rest = plan._near_block(r0, plan.n_targets, compute == "both")
        e0 = int(full._near_indptr[r0])
        assert np.array_equal(full._near_indptr[: r0 + 1], plan._near_indptr[: r0 + 1])
        assert np.array_equal(full._near_indptr[r0:] - e0, ptr)
        for whole, head, tail in zip(_near_arrays(full)[1:], _near_arrays(plan)[1:], rest):
            if whole is not None:
                assert np.array_equal(whole[..., :e0], head)
                assert np.array_equal(whole[..., e0:], tail)
