"""Tests for the rotation-accelerated translation pipeline: Wigner-d
rotation operators, axial O(p^3) kernels, the FMM backend knob, the
bounded translation operator caches, and the cluster plan's lattice
translation kernel against a per-pair dense reference."""

import numpy as np
import pytest

from repro import FixedDegree, Treecode
from repro.direct import pairwise_potential
from repro.multipole.harmonics import cart_to_sph, ncoef, sph_harmonics
from repro.multipole.lattice import (
    lattice_keys,
    m2l_operators,
    scales,
    unpack_keys,
)
from repro.multipole.rotations import (
    RotationCache,
    build_rotation_operators,
    canonical_directions,
    direction_keys,
    rotate_packed,
    wigner_d,
)
from repro.multipole.translations import (
    axial_l2l,
    axial_m2l,
    axial_m2m,
    l2l,
    l2l_rotated,
    m2l,
    m2l_rotated,
    m2m,
    m2m_rotated,
    translation_cache_stats,
)
from repro.parallel import evaluate_plan_parallel
from repro.perf.plan import CompiledPlan
from repro.parallel.partition import translation_cost
from repro.robust import faults as faults_mod
from repro.robust.faults import FaultInjector, parse_fault_spec, set_injector
from repro.robust.retry import RetryPolicy

FAST = RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture
def injector_guard():
    prev = faults_mod.active_injector()
    yield
    set_injector(prev)


def _unit_dirs(rng, k):
    u = rng.standard_normal((k, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _conj_symmetric_rows(rng, b, p):
    """Random packed rows with real m=0 columns (physical expansions)."""
    C = rng.standard_normal((b, ncoef(p))) + 1j * rng.standard_normal(
        (b, ncoef(p))
    )
    for n in range(p + 1):
        C[:, n * (n + 1) // 2] = C[:, n * (n + 1) // 2].real
    return C


# ----------------------------------------------------------------------
# Wigner-d construction and packed rotation operators
# ----------------------------------------------------------------------


class TestWignerD:
    def test_degree_one_closed_form(self):
        beta = np.array([0.3, 1.2, 2.7])
        d = wigner_d(beta, 1)[1]
        c, s = np.cos(beta), np.sin(beta)
        ref = np.empty((3, 3, 3))
        ref[:, 2, 2] = (1 + c) / 2
        ref[:, 2, 1] = -s / np.sqrt(2)
        ref[:, 2, 0] = (1 - c) / 2
        ref[:, 1, 2] = s / np.sqrt(2)
        ref[:, 1, 1] = c
        ref[:, 1, 0] = -s / np.sqrt(2)
        ref[:, 0, 2] = (1 - c) / 2
        ref[:, 0, 1] = s / np.sqrt(2)
        ref[:, 0, 0] = (1 + c) / 2
        np.testing.assert_allclose(d, ref, atol=1e-15)

    def test_blocks_orthogonal(self):
        beta = np.array([0.1, 0.9, 2.2, 3.0])
        mats = wigner_d(beta, 8)
        for n, blk in enumerate(mats):
            eye = np.eye(2 * n + 1)
            for M in blk:
                np.testing.assert_allclose(M @ M.T, eye, atol=1e-12)

    def test_rotation_matches_brute_force_operator(self, rng):
        """Packed rotation == least-squares operator fitted from the
        harmonics themselves (pins the phase/transpose convention)."""
        p = 4
        u = _unit_dirs(rng, 1)[0]
        ct = np.clip(u[2], -1, 1)
        th, ph = np.arccos(ct), np.arctan2(u[1], u[0])
        cz, sz = np.cos(-ph), np.sin(-ph)
        Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
        cy, sy = np.cos(-th), np.sin(-th)
        Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        R = Ry @ Rz  # maps u onto +z

        def full_row(v, n):
            _, c, f = cart_to_sph(np.asarray(v, float).reshape(1, 3))
            Yp = sph_harmonics(c, f, n)[0]
            row = np.empty(2 * n + 1, complex)
            for m in range(n + 1):
                row[n + m] = Yp[n * (n + 1) // 2 + m]
                row[n - m] = np.conj(row[n + m])
            return row

        ops = build_rotation_operators(u[None, :], p)[0]
        C = _conj_symmetric_rows(rng, 1, p)
        Cr = rotate_packed(C, ops, p)
        for n in range(1, p + 1):
            V = rng.standard_normal((6 * n + 8, 3))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            M1 = np.array([np.conj(full_row(v, n)) for v in V])
            M2 = np.array([np.conj(full_row(R @ v, n)) for v in V])
            AT, *_ = np.linalg.lstsq(M1, M2, rcond=None)
            lo = n * (n + 1) // 2
            full = np.empty(2 * n + 1, complex)
            for m in range(n + 1):
                full[n + m] = C[0, lo + m]
                full[n - m] = np.conj(C[0, lo + m])
            want = AT.T @ full
            got = Cr[0, lo : lo + n + 1]
            np.testing.assert_allclose(got, want[n:], atol=1e-10)

    @pytest.mark.parametrize("p", range(2, 13))
    def test_round_trip_identity(self, rng, p):
        """rotate -> inverse-rotate returns the input to <= 1e-14."""
        for u in _unit_dirs(rng, 3):
            ops = build_rotation_operators(u[None, :], p)[0]
            C = _conj_symmetric_rows(rng, 5, p)
            back = rotate_packed(rotate_packed(C, ops, p), ops, p, inverse=True)
            assert np.abs(back - C).max() <= 1e-14 * max(1.0, np.abs(C).max())

    def test_lower_degree_reuses_higher_operator(self, rng):
        u = _unit_dirs(rng, 1)
        hi = build_rotation_operators(u, 9)[0]
        lo = build_rotation_operators(u, 4)[0]
        C = _conj_symmetric_rows(rng, 3, 4)
        np.testing.assert_array_equal(
            rotate_packed(C, hi, 4), rotate_packed(C, lo, 4)
        )
        with pytest.raises(ValueError, match="operator built for"):
            rotate_packed(_conj_symmetric_rows(rng, 1, 11), hi, 11)


class TestRotationCache:
    def test_quantized_dedup_and_rebuild(self, rng):
        cache = RotationCache()
        u = _unit_dirs(rng, 4)
        ids = cache.ids_for(u, 3)
        # directions differing by < quantum share an id and an operator
        jit = u + rng.standard_normal(u.shape) * 1e-16
        jit /= np.linalg.norm(jit, axis=1, keepdims=True)
        np.testing.assert_array_equal(cache.ids_for(jit, 3), ids)
        assert len(cache) == 4 and cache.built == 4
        assert cache.max_p == 3
        # a higher-degree request rebuilds in place, ids stay stable
        np.testing.assert_array_equal(cache.ids_for(u, 7), ids)
        assert len(cache) == 4 and cache.max_p == 7
        assert cache.nbytes > 0

    def test_canonical_directions_are_deterministic_units(self, rng):
        u = _unit_dirs(rng, 16)
        v = canonical_directions(direction_keys(u))
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.abs(v - u).max() <= 1e-12


# ----------------------------------------------------------------------
# Axial kernels and the rotated drop-in wrappers
# ----------------------------------------------------------------------


class TestAxialKernels:
    @pytest.mark.parametrize("p_src,p_loc", [(4, 4), (6, 3), (3, 7)])
    def test_axial_m2l_matches_dense_on_axis(self, rng, p_src, p_loc):
        C = _conj_symmetric_rows(rng, 6, p_src)
        rho = rng.uniform(2.0, 5.0, 6)
        got = axial_m2l(C, rho, p_src, p_loc)
        want = np.stack(
            [
                m2l(C[i], np.array([0.0, 0.0, rho[i]]), p_src, p_loc).reshape(-1)
                for i in range(6)
            ]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "axial,dense", [(axial_m2m, m2m), (axial_l2l, l2l)], ids=["m2m", "l2l"]
    )
    def test_axial_shifts_match_dense_on_axis(self, rng, axial, dense):
        p = 6
        C = _conj_symmetric_rows(rng, 5, p)
        rho = rng.uniform(0.5, 2.0, 5)
        got = axial(C, rho, p)
        want = np.stack(
            [
                dense(C[i], np.array([0.0, 0.0, rho[i]]), p).reshape(-1)
                for i in range(5)
            ]
        )
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("p", [3, 6, 10])
    def test_m2l_rotated_matches_dense(self, rng, p):
        B = 7
        C = _conj_symmetric_rows(rng, B, p)
        d = rng.standard_normal((B, 3)) * 2.0 + 3.0
        want = np.stack([m2l(C[i], d[i], p).reshape(-1) for i in range(B)])
        got = m2l_rotated(C, d, p)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    def test_m2l_rotated_rectangular_degrees(self, rng):
        p_src, p_loc = 6, 3
        C = _conj_symmetric_rows(rng, 4, p_src)
        d = rng.standard_normal((4, 3)) + 3.0
        want = np.stack(
            [m2l(C[i], d[i], p_src, p_loc).reshape(-1) for i in range(4)]
        )
        got = m2l_rotated(C, d, p_src, p_loc)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize(
        "rotated,dense", [(m2m_rotated, m2m), (l2l_rotated, l2l)],
        ids=["m2m", "l2l"],
    )
    def test_shift_wrappers_match_dense(self, rng, rotated, dense):
        p = 8
        B = 6
        C = _conj_symmetric_rows(rng, B, p)
        t = rng.standard_normal((B, 3))
        want = np.stack([dense(C[i], t[i], p).reshape(-1) for i in range(B)])
        got = rotated(C, t, p)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)

    def test_zero_shift_is_identity(self, rng):
        p = 5
        C = _conj_symmetric_rows(rng, 3, p)
        t = np.zeros((3, 3))
        t[1] = [0.1, -0.2, 0.3]
        got = m2m_rotated(C, t, p)
        np.testing.assert_array_equal(got[0], C[0])
        np.testing.assert_array_equal(got[2], C[2])
        want1 = m2m(C[1], t[1], p).reshape(-1)
        assert np.abs(got[1] - want1).max() <= 1e-12 * np.abs(want1).max()

    def test_shared_cache_reused_across_calls(self, rng):
        cache = RotationCache()
        p = 4
        C = _conj_symmetric_rows(rng, 5, p)
        d = np.tile(np.array([[1.0, 2.0, 2.0]]), (5, 1))
        m2l_rotated(C, d, p, cache=cache)
        built = cache.built
        assert built == 1  # five identical directions -> one operator
        m2l_rotated(C, d, p, cache=cache)
        assert cache.built == built  # second call builds nothing


# ----------------------------------------------------------------------
# Satellite: bounded FIFO operator caches with hit/miss telemetry
# ----------------------------------------------------------------------


class TestTranslationCacheBounds:
    def test_cache_stays_bounded_with_stats(self):
        from repro.multipole import translations as tr

        before = translation_cache_stats()
        assert set(before) >= {"size", "max_size", "hits", "misses"}
        # drive more distinct keys than the cap through the grid caches
        for p in range(1, 60):
            tr._sq_grid(p)
            tr._iphase_grid(p, +1)
            tr._iphase_grid(p, -1)
            tr._valid_mask(p)
        after = translation_cache_stats()
        assert after["size"] <= after["max_size"]
        assert after["misses"] > before["misses"]
        # re-request a hot key: pure hit, no growth
        tr._sq_grid(59)
        final = translation_cache_stats()
        assert final["hits"] > after["hits"]
        assert final["size"] == after["size"]

    def test_eviction_preserves_values(self):
        """Evicted entries are rebuilt identically (cache is transparent)."""
        from repro.multipole import translations as tr

        a = tr._sq_grid(7).copy()
        for p in range(60, 60 + tr._TRANSLATION_CACHE_MAX):
            tr._valid_mask(p)
        np.testing.assert_array_equal(tr._sq_grid(7), a)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_translation_cost_models(self):
        p = np.array([2, 7, 20])
        np.testing.assert_array_equal(translation_cost(p), (p + 1.0) ** 4)


# ----------------------------------------------------------------------
# Cluster plan translation kernel
# ----------------------------------------------------------------------


def _interleaved(C):
    """Complex coefficients as interleaved ``[Re c, Im c]`` real rows."""
    return np.stack([C.real, C.imag], axis=-1).reshape(*C.shape[:-1], -1)


def _dense_reference(plan):
    """Swap a cluster plan's lattice GEMMs for per-pair
    ``translations.m2l`` in complex128 over the same box pairs, box
    centres and (octant, target) buckets (single charge vectors only).
    The plan then reads the un-folded operand rows, onto which each
    pair's folded row wraps."""
    centers = plan.tc.tree.center_geom
    plan.form_coefficients = lambda qs: CompiledPlan._p2m_operands(plan, qs)

    def group(X, g):
        nc = ncoef(g.p)
        rows = g.cols % X.shape[0]
        tgts = np.empty(g.cols.size, dtype=np.int64)
        tgts[g.red.indices] = np.repeat(np.tile(g.utgt, 8), np.diff(g.red.indptr))
        srcs = plan._operand_nodes[g.p][rows]
        C = X[rows, 0::2] + 1j * X[rows, 1::2]
        L = m2l(C, centers[srcs] - centers[tgts], g.p)
        Z = g.red @ _interleaved(L[:, :nc])
        return Z.reshape(8, -1, Z.shape[-1]).sum(axis=0)

    plan._m2l_group = group
    plan._m2l_rebuilt = lambda ctx, u, L: None  # ``group`` covers every run
    return plan


class TestClusterRotationBackend:
    """The cluster plan's translation kernel (one lattice operator per
    canonical direction) against the per-pair dense reference."""

    def test_c128_agrees_with_dense_and_ledger_unchanged(self, small_cloud):
        """tol-mode lattice plans must agree with the complex128 dense
        reference to 1e-12 and leave the a-posteriori ledger bitwise
        identical."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        tol = 2e-4
        kw = dict(mode="cluster", tol=tol, accumulate_bounds=True, cache_dir="")
        dense = _dense_reference(tc.compile_plan(**kw)).execute(q)
        lat_plan = tc.compile_plan(**kw)
        assert lat_plan.n_box_pairs > 0
        lat = lat_plan.execute(q)
        scale = np.abs(dense.potential).max()
        assert np.abs(dense.potential - lat.potential).max() <= 1e-12 * scale
        np.testing.assert_array_equal(dense.error_bound, lat.error_bound)
        # containment chain holds under the lattice kernel
        exact = pairwise_potential(pts, pts, q, exclude=np.arange(len(q)))
        err = np.abs(lat.potential - exact).max()
        assert err <= lat.error_bound.max() <= tol

    def test_fixed_degree_parity_within_rounding(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(6), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        dense = _dense_reference(tc.compile_plan(mode="cluster", cache_dir=""))
        lat, ref = plan.execute(q), dense.execute(q)
        scale = np.abs(ref.potential).max()
        assert np.abs(ref.potential - lat.potential).max() <= 1e-12 * scale

    def test_gradient_parity(self, small_cloud):
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16)
        kw = dict(mode="cluster", compute="both", cache_dir="")
        dense = _dense_reference(tc.compile_plan(**kw)).execute(q)
        lat = tc.compile_plan(**kw).execute(q)
        gs = np.abs(dense.gradient).max()
        assert np.abs(dense.gradient - lat.gradient).max() <= 1e-12 * gs

    def test_operators_shared_by_direction(self, small_cloud):
        """One operator per canonical lattice direction, shared by every
        unit, level and octant, and counted in the plan's memory."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        assert plan.n_box_pairs > 0
        ops = {op for u in plan._units for g in u.groups for op in g.ops.tolist()}
        assert ops == set(range(len(plan._m2l_ops)))
        assert len(plan._m2l_ops) < plan.n_box_pairs // 10
        assert plan.memory_bytes >= sum(T.nbytes for T in plan._m2l_ops)

    def test_backend_validation(self, small_cloud):
        """Cluster plans have no translation-backend knob."""
        pts, q = small_cloud
        tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5, leaf_size=16)
        with pytest.raises(TypeError, match="translation_backend"):
            tc.compile_plan(mode="cluster", translation_backend="dense")

    def test_serial_thread_process_identical(self, small_cloud):
        plan = Treecode(
            *small_cloud, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16
        ).compile_plan(mode="cluster")
        q = small_cloud[1]
        serial = plan.execute(q)
        thr = evaluate_plan_parallel(plan, q, n_threads=3, retry=FAST)
        prc = evaluate_plan_parallel(
            plan, q, n_threads=2, retry=FAST, backend="process"
        )
        np.testing.assert_array_equal(serial.potential, thr.potential)
        np.testing.assert_array_equal(thr.potential, prc.potential)

    def test_block_errors_recovered_exactly(self, small_cloud, injector_guard):
        pts, q = small_cloud
        plan = Treecode(
            pts, q, degree_policy=FixedDegree(5), alpha=0.5, leaf_size=16
        ).compile_plan(mode="cluster")
        set_injector(None)
        clean = evaluate_plan_parallel(plan, q, n_threads=2, backend="process")
        set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=3))
        faulty = evaluate_plan_parallel(
            plan, q, n_threads=2, retry=FAST, backend="process"
        )
        np.testing.assert_array_equal(faulty.potential, clean.potential)
        assert faulty.n_retries + faulty.n_fallbacks > 0


class TestBatchedM2LDedup:
    """Pairs sharing a lattice direction share one operator, keyed at
    compile by exact integer offsets."""

    def test_duplicated_rows_bitwise_equal_unique_build(self, rng):
        """Operators built once per unique direction and gathered are
        bitwise those built row by row: each is an elementwise function
        of its direction."""
        p = 5
        base = rng.integers(-4, 5, size=(4, 3))
        base[np.all(base == 0, axis=1)] = [1, 2, 3]
        d = base[rng.integers(0, 4, size=48)] * rng.integers(1, 4, size=(48, 1))
        key = lattice_keys(d)[0]
        uk, inv = np.unique(key, return_inverse=True)
        assert uk.size <= 4
        got = m2l_operators(unpack_keys(uk), p)[inv]
        want = np.concatenate(
            [m2l_operators(unpack_keys(key[i : i + 1]), p) for i in range(48)]
        )
        np.testing.assert_array_equal(got, want)

    def test_small_batches_skip_dedup(self, rng):
        """A one-pair direction is an operator like any other: the
        kernel matches ``translations.m2l`` for a single offset."""
        p = 3
        d = np.array([[2, -1, 5]])
        C = _conj_symmetric_rows(rng, 1, p)
        key, octs, r2 = lattice_keys(d)
        T = m2l_operators(unpack_keys(key), p)[0]
        rho = 0.5 * np.sqrt(r2)
        _, inv = scales(p, rho, octs)
        Y = ((_interleaved(C) * inv) @ T) * (inv / rho[:, None])
        want = m2l(C, 0.5 * d, p)
        got = Y[:, 0::2] + 1j * Y[:, 1::2]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_distinct_rows_skip_dedup(self, rng):
        """Distinct directions never share a key; gcd multiples and
        octant mirrors always do."""
        d = rng.integers(-9, 10, size=(64, 3))
        d[np.all(d == 0, axis=1)] = [1, 0, 0]
        key = lattice_keys(d)[0]
        a = np.abs(d)
        canon = a // np.gcd.reduce(a, axis=1)[:, None]
        assert np.unique(key).size == np.unique(canon, axis=0).shape[0]
        np.testing.assert_array_equal(lattice_keys(-3 * d)[0], key)

    def test_execute_never_dedups(self, rng, monkeypatch):
        """Cluster execute reuses the compile-time decisions: a
        fixed-degree plan calls no ``np.unique`` per matvec, and results
        are unchanged."""
        from repro.perf import cluster as cl

        pts = rng.random((400, 3))
        q = rng.uniform(-1, 1, 400)
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5, leaf_size=16)
        plan = tc.compile_plan(mode="cluster", cache_dir="")
        ref = plan.execute(q).potential
        calls = []
        real_unique = np.unique

        def spy(*a, **k):
            calls.append(k.get("axis"))
            return real_unique(*a, **k)

        monkeypatch.setattr(cl.np, "unique", spy)
        got = plan.execute(q).potential
        assert calls == []
        np.testing.assert_array_equal(got, ref)
