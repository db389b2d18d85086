"""Benchmark multi-RHS batched execution.

**BENCH_7** measures the batched plan executor: executing a ``k = 8``
right-hand-side batch through one compiled cluster plan must deliver
>= 2x the per-vector throughput of eight sequential single-vector
applications; every kernel (P2M, M2L, L2P, near blocks) runs once as a
BLAS-3 GEMM over the batch instead of eight BLAS-2 passes.  Correctness
is gated too: each batch column must match its standalone evaluation
to 1e-11.

Run standalone (pytest-free so CI can gate on the exit code)::

    PYTHONPATH=src python benchmarks/bench_batch.py --mode smoke  # CI gate
    PYTHONPATH=src python benchmarks/bench_batch.py --mode full   # BENCH_7.json

The smoke tier runs the acceptance sizes themselves (n=50k, k=8); the
full tier adds a k-sweep at the same scale.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import AdaptiveChargeDegree, Treecode  # noqa: E402
from repro.data.distributions import make_distribution, unit_charges  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Column-vs-standalone agreement ceiling — matches the repo-wide
#: ``max_abs_diff`` ledger rule (plans agree with the reference
#: evaluator to 1e-11; batch columns inherit that budget).
TOL = 1e-11


def _time_best(fn, repeats: int):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _build(n: int, alpha: float = 0.5, p0: int = 4) -> Treecode:
    pts = make_distribution("uniform", n, seed=n)
    q = unit_charges(n, seed=n + 1, signed=True)
    return Treecode(
        pts, q, degree_policy=AdaptiveChargeDegree(p0=p0, alpha=alpha), alpha=alpha
    )


def bench_batch(tc: Treecode, plan, k: int, repeats: int) -> dict:
    """Per-vector throughput of one k-column batch vs k single passes."""
    n = tc.tree.points.shape[0]
    cols = [unit_charges(n, seed=100 + j, signed=True) for j in range(k)]
    Q = np.stack(cols, axis=1)

    t_single, _ = _time_best(lambda: [plan.execute(qj) for qj in cols], repeats)
    t_batch, res = _time_best(lambda: plan.execute(Q), repeats)
    singles = [plan.execute(qj) for qj in cols]
    diff = max(
        float(np.max(np.abs(res.potential[:, j] - singles[j].potential)))
        for j in range(k)
    )
    return {
        "n": n,
        "k": k,
        "single_matvec_s": t_single / k,
        "batched_s": t_batch,
        # (time for k sequential singles) / (time for one k-batch):
        # per-vector throughput gain of the BLAS-3 path
        "batched_matvec_throughput": t_single / t_batch,
        "max_abs_diff": diff,
    }


def run(mode: str, out_path: pathlib.Path) -> int:
    n = 50000
    ks = (8,) if mode == "smoke" else (2, 4, 8, 16)
    repeats = 2 if mode == "smoke" else 3
    tc = _build(n)
    plan = tc.compile_plan(mode="cluster")

    report = {"bench": "BENCH_7", "mode": mode, "batch": []}
    for k in ks:
        row = bench_batch(tc, plan, k, repeats)
        report["batch"].append(row)
        print(
            f"batch n={n} k={k:2d}: single {row['single_matvec_s'] * 1e3:8.1f} "
            f"ms/vec, batch {row['batched_s'] * 1e3:8.1f} ms "
            f"({row['batched_matvec_throughput']:.2f}x per-vector), "
            f"diff {row['max_abs_diff']:.2e}"
        )

    k8 = next(r for r in report["batch"] if r["k"] == 8)
    acceptance = {
        "batched_throughput_2x_at_k8": k8["batched_matvec_throughput"] >= 2.0,
        "batch_columns_match_1e12": all(
            r["max_abs_diff"] <= TOL for r in report["batch"]
        ),
    }
    report["acceptance"] = acceptance
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    if not all(acceptance.values()):
        failed = [k for k, v in acceptance.items() if not v]
        print(f"ACCEPTANCE FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("batch bench OK")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--mode",
        choices=["smoke", "full"],
        default="smoke",
        help="'smoke' runs the acceptance sizes (CI gate); 'full' adds a "
        "k-sweep",
    )
    ap.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output path for BENCH_7.json",
    )
    args = ap.parse_args(argv)
    return run(args.mode, args.out or REPO_ROOT / "BENCH_7.json")


if __name__ == "__main__":
    sys.exit(main())
