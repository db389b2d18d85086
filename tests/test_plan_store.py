"""Tests for the persistent plan store (repro.perf.store).

Covers the satellite contract: content-digest invalidation on perturbed
points / tol / backend / dtype, corruption and truncation falling back
to a fresh compile with the ``plan_cache_misses{reason}`` counter
incremented, and mmap-loaded plans matching freshly compiled ones —
bitwise through the serial, thread and process executors.
"""

import os

import numpy as np
import pytest

import repro
from repro.core.degree import AdaptiveChargeDegree, FixedDegree
from repro.core.treecode import Treecode
from repro.obs import REGISTRY, tracing
from repro.perf.store import (
    ENV_PLAN_CACHE,
    PlanStoreError,
    load_plan,
    plan_digest,
    resolve_cache_dir,
    save_plan,
)

N = 600


@pytest.fixture
def built(rng):
    pts = rng.random((N, 3))
    q = rng.uniform(-1, 1, N)
    # the leaf size pins the full tree: cluster round-trips carry M2L
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
    return pts, q, tc


def _digest(tc, plan, **over):
    kw = dict(
        tgt=None,
        self_targets=True,
        compute="potential",
        accumulate_bounds=False,
        memory_budget=plan.memory_budget,
        mode="target",
        n_units=None,
        tol=None,
    )
    kw.update(over)
    return plan_digest(tc, **kw)


def test_roundtrip_bitwise(built, tmp_path):
    pts, q, tc = built
    for mode in ("target", "cluster"):
        plan = tc.compile_plan(mode=mode, accumulate_bounds=True, cache_dir="")
        ref = plan.execute(q)
        path = tmp_path / f"{mode}.plan"
        save_plan(plan, path, digest="d")
        loaded = load_plan(path, expected_digest="d")
        got = loaded.execute(q)
        assert np.array_equal(got.potential, ref.potential)
        assert np.array_equal(got.error_bound, ref.error_bound)


def test_loaded_arrays_are_readonly_views(built, tmp_path):
    pts, q, tc = built
    plan = tc.compile_plan(cache_dir="")
    path = tmp_path / "p.plan"
    save_plan(plan, path)
    loaded = load_plan(path)
    tree_pts = loaded.tc.tree.points
    assert not tree_pts.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        tree_pts[0, 0] = 0.0


def _reaches_memmap(a) -> bool:
    while a is not None:
        if isinstance(a, np.memmap):
            return True
        a = getattr(a, "base", None)
    return False


def test_warm_start_operators_wrap_the_mmap(built, tmp_path):
    """Loaded sparse operators are rewrapped around the mapped file:
    every data/indices/indptr array's ``.base`` chain reaches the
    memmap (nothing copied at load), and the plan runs bitwise."""
    pts, q, tc = built
    for mode in ("target", "cluster"):
        plan = tc.compile_plan(mode=mode, compute="both", cache_dir="")
        path = tmp_path / f"{mode}.plan"
        save_plan(plan, path)
        loaded = load_plan(path)
        ops = [g.op for g in loaded._p2m_groups]
        ops += [loaded._near_K, *loaded._near_G]
        if mode == "target":
            ops += [A for ch in loaded._far_chunks for A in (ch.op, ch.gop)]
        else:
            ops += [A for u in loaded._units for g in u.l2p for A in (g.op, g.gop)]
        for A in ops:
            for a in (A.data, A.indices, A.indptr):
                assert _reaches_memmap(a), (mode, type(A).__name__)
        # shared sparsity arrays are stored once and load as one buffer
        for G in loaded._near_G:
            assert np.shares_memory(G.indices, loaded._near_K.indices)
        got, want = loaded.execute(q), plan.execute(q)
        assert np.array_equal(got.potential, want.potential)
        assert np.array_equal(got.gradient, want.gradient)


def test_digest_invalidation(built, rng):
    """Perturbed points, a different tol or mode each change the
    content digest — the cache key the store addresses plans by."""
    pts, q, tc = built
    plan = tc.compile_plan(cache_dir="")
    base = _digest(tc, plan)
    assert base == _digest(tc, plan)  # deterministic

    pts2 = pts.copy()
    pts2[0, 0] += 1e-9
    tc2 = Treecode(pts2, q, degree_policy=FixedDegree(4), alpha=0.5)
    assert _digest(tc2, plan) != base

    assert _digest(tc, plan, tol=1e-6) != base
    assert _digest(tc, plan, mode="cluster") != base

    # policy parameters feed the digest too
    tc3 = Treecode(
        pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5,
        leaf_size=16,
    )
    assert _digest(tc3, plan) != base

    # a chosen cut and a pinned one are different cluster plans; the
    # target-major plan ignores the knob
    chosen = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    assert _digest(chosen, plan, mode="cluster") != _digest(tc, plan, mode="cluster")
    assert _digest(chosen, plan) == base


def test_cached_compile_hits_and_is_bitwise(built, tmp_path):
    pts, q, tc = built
    ref = tc.compile_plan(cache_dir="").execute(q)
    p1 = tc.compile_plan(cache_dir=str(tmp_path))  # miss (absent) + store
    assert len(list(tmp_path.glob("*.plan"))) == 1
    p2 = tc.compile_plan(cache_dir=str(tmp_path))  # hit
    assert len(list(tmp_path.glob("*.plan"))) == 1
    for p in (p1, p2):
        assert np.array_equal(p.execute(q).potential, ref.potential)


def _miss_counts() -> dict:
    counter = REGISTRY.counter(
        "plan_cache_misses",
        "plan-store lookups that fell back to a fresh compile",
        labelnames=("reason",),
    )
    return {key[0]: inst.value for key, inst in counter._items()}


def test_truncated_and_corrupt_fall_back(built, tmp_path):
    """Damaged cache files must not fail the compile: the load error is
    counted under its reason and a fresh plan is compiled (and the
    cache healed by re-storing it)."""
    pts, q, tc = built
    ref = tc.compile_plan(cache_dir="").execute(q)
    tc.compile_plan(cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.plan")

    REGISTRY.reset()
    tracing.enable()
    try:
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate
        plan = tc.compile_plan(cache_dir=str(tmp_path))
        assert np.array_equal(plan.execute(q).potential, ref.potential)
        assert _miss_counts().get("truncated") == 1

        # the fallback compile re-stored a loadable file (byte equality
        # is not guaranteed — compile-time stats ride in the header)
        assert np.array_equal(
            load_plan(path).execute(q).potential, ref.potential
        )
        path.write_bytes(b"\x00garbage" * 64)
        plan = tc.compile_plan(cache_dir=str(tmp_path))
        assert np.array_equal(plan.execute(q).potential, ref.potential)
        assert _miss_counts() == {"truncated": 1, "corrupt": 1}

        assert REGISTRY.counter("plan_cache_stores").value == 2
        assert REGISTRY.counter("plan_cache_hits").value == 0
        plan = tc.compile_plan(cache_dir=str(tmp_path))
        assert REGISTRY.counter("plan_cache_hits").value == 1
    finally:
        tracing.set_enabled(False)
        REGISTRY.reset()


def test_stale_digest_and_version_mismatch(built, tmp_path, monkeypatch):
    pts, q, tc = built
    plan = tc.compile_plan(cache_dir="")
    path = tmp_path / "p.plan"
    save_plan(plan, path, digest="aaaa")
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path, expected_digest="bbbb")
    assert exc.value.reason == "stale"

    monkeypatch.setattr(repro, "__version__", "0.0.0-other")
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path, expected_digest="aaaa")
    assert exc.value.reason == "version"


def test_previous_format_version_recompiles(built, tmp_path):
    """A plan file written by the previous container format (its layout
    of the gradient rows differs) is a ``version`` miss, and the
    recompiled plan's matvecs are bitwise those of a fresh compile."""
    from repro.perf.store import STORE_FORMAT_VERSION, _MAGIC

    pts, q, tc = built
    for mode in ("target", "cluster"):
        cache = tmp_path / mode
        fresh = tc.compile_plan(mode=mode, compute="both", cache_dir="").execute(q)
        tc.compile_plan(mode=mode, compute="both", cache_dir=str(cache))
        (path,) = cache.glob("*.plan")
        blob = bytearray(path.read_bytes())
        off = len(_MAGIC)
        blob[off : off + 4] = np.uint32(STORE_FORMAT_VERSION - 1).tobytes()
        path.write_bytes(bytes(blob))

        REGISTRY.reset()
        tracing.enable()
        try:
            plan = tc.compile_plan(mode=mode, compute="both", cache_dir=str(cache))
            assert _miss_counts() == {"version": 1}
            assert REGISTRY.counter("plan_cache_hits").value == 0
        finally:
            tracing.set_enabled(False)
            REGISTRY.reset()
        got = plan.execute(q)
        assert np.array_equal(got.potential, fresh.potential)
        assert np.array_equal(got.gradient, fresh.gradient)
        # the recompile healed the store at the current version
        assert np.array_equal(load_plan(path).execute(q).potential, fresh.potential)


def test_format5_file_misses_as_version(built, tmp_path, monkeypatch):
    """Format 6 dropped the treecode's upward-pass state and the
    ``upward`` digest key: a format-5 file is a ``version`` miss, for
    ``evaluate``'s spilled plans (which go through the store) too."""
    from repro.perf.store import STORE_FORMAT_VERSION, _MAGIC

    assert STORE_FORMAT_VERSION >= 6
    pts, q, tc = built
    monkeypatch.setenv(ENV_PLAN_CACHE, str(tmp_path))
    fresh = tc.evaluate()
    (path,) = tmp_path.glob("*.plan")
    blob = bytearray(path.read_bytes())
    off = len(_MAGIC)
    blob[off : off + 4] = np.uint32(5).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path)
    assert exc.value.reason == "version"

    REGISTRY.reset()
    try:
        got = tc.evaluate()
        assert _miss_counts() == {"version": 1}
        assert REGISTRY.counter("plan_compiles").value == 1
    finally:
        REGISTRY.reset()
    np.testing.assert_array_equal(got.potential, fresh.potential)


def test_absent_file_raises_absent(tmp_path):
    with pytest.raises(PlanStoreError) as exc:
        load_plan(tmp_path / "nope.plan")
    assert exc.value.reason == "absent"


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_PLAN_CACHE, raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir("") is None
    assert resolve_cache_dir(str(tmp_path)) == tmp_path
    monkeypatch.setenv(ENV_PLAN_CACHE, str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir("") is None  # explicit empty beats the env var
    monkeypatch.setenv(ENV_PLAN_CACHE, "")
    assert resolve_cache_dir(None) is None


def test_mmap_loaded_plan_bitwise_across_executors(built, tmp_path, rng):
    """The warm-started (read-only, mmap-backed) plan must be
    indistinguishable from the fresh one under every executor."""
    from repro.parallel import evaluate_plan_parallel

    pts, q, tc = built
    fresh = tc.compile_plan(mode="cluster", cache_dir="")
    path = tmp_path / "c.plan"
    save_plan(fresh, path)
    loaded = load_plan(path)

    q2 = rng.uniform(-1, 1, N)
    ref = fresh.execute(q2).potential
    assert np.array_equal(loaded.execute(q2).potential, ref)
    for backend in ("thread", "process"):
        got = evaluate_plan_parallel(
            loaded, q2, n_threads=2, backend=backend
        ).potential
        assert np.array_equal(got, ref), backend

    # and a batch through the loaded plan, per-column bitwise with the
    # fresh plan's batch
    Q = np.stack([q2, -q2, 0.5 * q2], axis=1)
    assert np.array_equal(loaded.execute(Q).potential, fresh.execute(Q).potential)


def test_fmm_plan_cache_roundtrip(rng, tmp_path):
    from repro.fmm.engine import UniformFMM

    pts = rng.random((800, 3))
    q = rng.uniform(-1, 1, 800)
    f1 = UniformFMM(pts, q, level=2, degrees=4, plan_cache=str(tmp_path))
    a = f1.evaluate()  # compiles + stores
    assert len(list(tmp_path.glob("*.plan"))) == 1
    f2 = UniformFMM(pts, q, level=2, degrees=4, plan_cache=str(tmp_path))
    b = f2.evaluate()  # warm load
    assert len(list(tmp_path.glob("*.plan"))) == 1
    assert np.array_equal(a, b)


def test_bem_plan_cache_roundtrip(rng, tmp_path):
    from repro.bem.geometries import icosphere
    from repro.bem.operator import SingleLayerOperator

    mesh = icosphere(1)
    sig = rng.uniform(-1, 1, mesh.n_vertices)
    op1 = SingleLayerOperator(mesh, plan_cache=str(tmp_path))
    op1.matvec(sig)
    a = op1.matvec(sig)  # compiles + stores
    op2 = SingleLayerOperator(mesh, plan_cache=str(tmp_path))
    op2.matvec(sig)
    b = op2.matvec(sig)  # warm load
    assert len(list(tmp_path.glob("*.plan"))) == 1
    assert np.array_equal(a, b)


def test_unwritable_cache_dir_still_compiles(built, monkeypatch, tmp_path):
    pts, q, tc = built
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(0o400)
    if os.access(blocked, os.W_OK):  # running as root: chmod is a no-op
        pytest.skip("cannot create an unwritable directory here")
    plan = tc.compile_plan(cache_dir=str(blocked / "cache"))
    ref = tc.compile_plan(cache_dir="")
    assert np.array_equal(plan.execute(q).potential, ref.execute(q).potential)


def test_format6_file_misses_as_version(built, tmp_path):
    """Format 7 keys cluster M2L operators by (direction, length, level
    step) and drops the groups' scale tables: a format-6 cluster plan is
    a ``version`` miss, and the recompile is bitwise a fresh compile."""
    from repro.perf.store import STORE_FORMAT_VERSION, _MAGIC

    assert STORE_FORMAT_VERSION >= 7
    pts, q, tc = built
    fresh = tc.compile_plan(mode="cluster", cache_dir="").execute(q)
    tc.compile_plan(mode="cluster", cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.plan")
    blob = bytearray(path.read_bytes())
    off = len(_MAGIC)
    blob[off : off + 4] = np.uint32(6).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path)
    assert exc.value.reason == "version"

    REGISTRY.reset()
    tracing.enable()
    try:
        plan = tc.compile_plan(mode="cluster", cache_dir=str(tmp_path))
        assert _miss_counts() == {"version": 1}
    finally:
        tracing.set_enabled(False)
        REGISTRY.reset()
    np.testing.assert_array_equal(plan.execute(q).potential, fresh.potential)


def test_format7_file_misses_as_version(built, tmp_path):
    """Format 8 stores near fields as row-range units over incidences,
    without dense spilled blocks: a format-7 file of a partly spilled
    plan is a ``version`` miss, and the recompile is bitwise a fresh
    compile."""
    from repro.perf.store import STORE_FORMAT_VERSION, _MAGIC

    assert STORE_FORMAT_VERSION >= 8
    pts, q, tc = built
    kw = dict(compute="both", memory_budget=1 << 20)
    fresh = tc.compile_plan(cache_dir="", **kw).execute(q)
    tc.compile_plan(cache_dir=str(tmp_path), **kw)
    (path,) = tmp_path.glob("*.plan")
    blob = bytearray(path.read_bytes())
    off = len(_MAGIC)
    blob[off : off + 4] = np.uint32(7).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path)
    assert exc.value.reason == "version"

    REGISTRY.reset()
    tracing.enable()
    try:
        plan = tc.compile_plan(cache_dir=str(tmp_path), **kw)
        assert _miss_counts() == {"version": 1}
    finally:
        tracing.set_enabled(False)
        REGISTRY.reset()
    assert plan.n_near_precomputed > 0 and plan.n_near_spilled > 0
    got = plan.execute(q)
    np.testing.assert_array_equal(got.potential, fresh.potential)
    np.testing.assert_array_equal(got.gradient, fresh.gradient)
    # the healed file restores the spilled incidences from the mapping
    loaded = load_plan(path)
    assert all(_reaches_memmap(a) for a in loaded._near_inc)
    np.testing.assert_array_equal(loaded.execute(q).gradient, fresh.gradient)


def test_format8_file_misses_as_version(built, tmp_path):
    """Format 9 cluster plans compile a cut view of the octree, chosen by
    the cost model, and their digest says whether the cut is chosen or
    pinned: a format-8 file is a ``version`` miss, and the recompile is
    bitwise a fresh compile at the same cut."""
    from repro.perf.store import STORE_FORMAT_VERSION, _MAGIC

    assert STORE_FORMAT_VERSION == 9
    pts, q, _ = built
    tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
    fresh_plan = tc.compile_plan(mode="cluster", cache_dir="")
    assert fresh_plan.cut_level < tc.tree.height - 1
    fresh = fresh_plan.execute(q)
    tc.compile_plan(mode="cluster", cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.plan")
    blob = bytearray(path.read_bytes())
    off = len(_MAGIC)
    blob[off : off + 4] = np.uint32(8).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(PlanStoreError) as exc:
        load_plan(path)
    assert exc.value.reason == "version"

    REGISTRY.reset()
    tracing.enable()
    try:
        plan = tc.compile_plan(mode="cluster", cache_dir=str(tmp_path))
        assert _miss_counts() == {"version": 1}
    finally:
        tracing.set_enabled(False)
        REGISTRY.reset()
    assert plan.cut_level == fresh_plan.cut_level
    np.testing.assert_array_equal(plan.execute(q).potential, fresh.potential)
    loaded = load_plan(path)
    assert loaded.cut_level == fresh_plan.cut_level
    assert loaded.cut_costs == fresh_plan.cut_costs
    np.testing.assert_array_equal(loaded.execute(q).potential, fresh.potential)
