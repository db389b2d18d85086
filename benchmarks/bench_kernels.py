"""Micro-benchmarks of the computational kernels.

Times the building blocks whose costs the paper's complexity analysis
reasons about: key generation, tree construction, P2M, the
translation operators, and the direct kernel.

Besides the pytest-benchmark suite, this module doubles as the BENCH_6
report generator for the regression ledger: :func:`bench_m2l_backends`
races the dense O((p+1)^4) M2L against the rotation O((p+1)^3)
pipeline at identical degrees over a shared direction set, and::

    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_6.json

writes the rows (per-degree timings, ``m2l_rotation_speedup`` on the
p >= 8 rows, dense/rotation agreement) that ``python -m repro bench
compare`` gates — the speedup floor is 2x and the complex128 agreement
ceiling 1e-12, both history-independent.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

import pytest

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.direct import direct_potential
from repro.multipole.expansion import p2m
from repro.multipole.harmonics import ncoef
from repro.multipole.rotations import RotationCache
from repro.multipole.translations import l2l, m2l, m2l_rotated, m2m
from repro.tree.hilbert import hilbert_key
from repro.tree.morton import morton_key
from repro.tree.octree import build_octree

N = 20000
RNG = np.random.default_rng(7)
PTS = RNG.random((N, 3))
Q = RNG.uniform(-1, 1, N)


def test_bench_morton_keys(benchmark):
    keys = benchmark(lambda: morton_key(PTS, np.zeros(3), np.ones(3)))
    assert keys.shape == (N,)


def test_bench_hilbert_keys(benchmark):
    keys = benchmark(lambda: hilbert_key(PTS, np.zeros(3), np.ones(3), bits=16))
    assert keys.shape == (N,)


def test_bench_octree_build(benchmark):
    tree = benchmark(lambda: build_octree(PTS, Q, leaf_size=16))
    assert tree.n_particles == N


@pytest.mark.parametrize("p", [4, 8])
def test_bench_p2m(benchmark, p):
    rel = RNG.random((5000, 3)) - 0.5
    q = RNG.uniform(-1, 1, 5000)
    coeffs = benchmark(lambda: p2m(rel, q, p))
    assert coeffs.shape == (ncoef(p),)


@pytest.mark.parametrize("op_name", ["m2m", "m2l", "l2l"])
def test_bench_translations(benchmark, op_name):
    p = 8
    B = 256
    coeffs = (RNG.random((B, ncoef(p))) + 1j * RNG.random((B, ncoef(p)))).astype(
        np.complex128
    )
    if op_name == "m2m":
        shifts = RNG.random((B, 3)) * 0.5
        out = benchmark(lambda: m2m(coeffs, shifts, p))
    elif op_name == "m2l":
        shifts = RNG.random((B, 3)) + 3.0
        out = benchmark(lambda: m2l(coeffs, shifts, p))
    else:
        shifts = RNG.random((B, 3)) * 0.5
        out = benchmark(lambda: l2l(coeffs, shifts, p))
    assert out.shape == (B, ncoef(p))


def test_bench_direct_small(benchmark):
    pts = PTS[:3000]
    q = Q[:3000]
    out = benchmark(lambda: direct_potential(pts, q))
    assert out.shape == (3000,)


# ---------------------------------------------------------------------------
# BENCH_6 — dense vs rotation M2L backends at identical degrees
# ---------------------------------------------------------------------------

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
MIN_SPEEDUP_P8 = 2.0  #: ledger rule: rotation >= 2x dense at p >= 8
MAX_REL_DIFF = 1e-12  #: complex128 dense/rotation agreement contract


def _m2l_instance(B: int, ndirs: int, seed: int = 11):
    """Well-separated displacements over ``ndirs`` shared directions,
    plus physically valid multipole rows (packed coefficients must obey
    the real-expansion symmetry, so they come from :func:`p2m`)."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(ndirs, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    d = dirs[rng.integers(0, ndirs, B)] * (3.0 + rng.random(B))[:, None]
    rel = rng.random((64, 3)) - 0.5
    q = rng.uniform(-1, 1, 64)

    def coeffs(p: int) -> np.ndarray:
        return np.tile(p2m(rel, q, p), (B, 1)) * (1.0 + rng.random((B, 1)))

    return d, coeffs


def bench_m2l_backends(
    ps: tuple = (4, 6, 8, 10, 12), B: int = 512, ndirs: int = 16, repeats: int = 5
) -> list[dict]:
    """Race dense :func:`m2l` against :func:`m2l_rotated` per degree.

    Both backends see the same coefficients and displacements; the
    rotation side reuses a warm :class:`RotationCache` (the steady state
    a compiled plan runs in — operators are built once per direction at
    compile time).  Rows with ``p >= 8`` carry the rule-gated
    ``m2l_rotation_speedup`` metric; lower degrees report the same ratio
    informationally as ``rotation_speedup``.
    """
    d, make_coeffs = _m2l_instance(B, ndirs)
    rows = []
    for p in ps:
        C = make_coeffs(p)
        cache = RotationCache()
        rot0 = m2l_rotated(C, d, p, cache=cache)  # warm: builds operators
        dense0 = m2l(C, d, p)
        rel_diff = float(np.max(np.abs(rot0 - dense0)) / np.max(np.abs(dense0)))
        best = {"dense": np.inf, "rotation": np.inf}
        for _ in range(repeats):  # alternate sides so drift hits both
            t0 = time.perf_counter()
            m2l(C, d, p)
            best["dense"] = min(best["dense"], time.perf_counter() - t0)
            t0 = time.perf_counter()
            m2l_rotated(C, d, p, cache=cache)
            best["rotation"] = min(best["rotation"], time.perf_counter() - t0)
        speedup = best["dense"] / best["rotation"]
        row = {
            "p": int(p),
            "B": int(B),
            "ndirs": int(ndirs),
            "dense_s": best["dense"],
            "rotation_s": best["rotation"],
            "m2l_backend_rel_diff": rel_diff,
            "rotation_dirs_built": cache.built,
        }
        # only p >= 8 rows carry the rule-gated metric: below the
        # crossover the rotation backend is not the one plans select
        row["m2l_rotation_speedup" if p >= 8 else "rotation_speedup"] = speedup
        rows.append(row)
    return rows


@pytest.mark.parametrize("backend", ["dense", "rotation"])
@pytest.mark.parametrize("p", [4, 8, 12])
def test_bench_m2l_backends(benchmark, p, backend):
    d, make_coeffs = _m2l_instance(B=512, ndirs=16)
    C = make_coeffs(p)
    if backend == "rotation":
        cache = RotationCache()
        m2l_rotated(C, d, p, cache=cache)  # build operators outside the timer
        out = benchmark(lambda: m2l_rotated(C, d, p, cache=cache))
    else:
        out = benchmark(lambda: m2l(C, d, p))
    assert out.shape == (512, ncoef(p))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="BENCH_6: dense vs rotation M2L backend micro-bench"
    )
    ap.add_argument("--batch", type=int, default=512, help="translations per degree")
    ap.add_argument("--ndirs", type=int, default=16, help="distinct directions")
    ap.add_argument("--repeats", type=int, default=5, help="best-of rounds")
    ap.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the BENCH_6 JSON report here (for the regression ledger)",
    )
    args = ap.parse_args(argv)

    rows = bench_m2l_backends(B=args.batch, ndirs=args.ndirs, repeats=args.repeats)
    ok = True
    for row in rows:
        speedup = row.get("m2l_rotation_speedup", row.get("rotation_speedup"))
        gated = "m2l_rotation_speedup" in row
        print(
            f"m2l p={row['p']:2d} dense {row['dense_s'] * 1e3:7.2f} ms  "
            f"rotation {row['rotation_s'] * 1e3:7.2f} ms  "
            f"speedup {speedup:5.2f}x{' (gated)' if gated else ''}  "
            f"rel_diff {row['m2l_backend_rel_diff']:.2e}"
        )
        if row["m2l_backend_rel_diff"] > MAX_REL_DIFF:
            print(
                f"FAIL: p={row['p']} dense/rotation disagree "
                f"({row['m2l_backend_rel_diff']:.2e} > {MAX_REL_DIFF:g})",
                file=sys.stderr,
            )
            ok = False
        if gated and speedup < MIN_SPEEDUP_P8:
            print(
                f"FAIL: p={row['p']} rotation speedup {speedup:.2f}x "
                f"< {MIN_SPEEDUP_P8:g}x",
                file=sys.stderr,
            )
            ok = False
    if args.out is not None:
        report = {"bench": "BENCH_6", "mode": "smoke", "m2l_backends": rows}
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if ok:
        print("m2l backend bench OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
