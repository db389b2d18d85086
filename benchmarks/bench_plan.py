"""Benchmark the compiled-plan matvec paths against fully spilled plans.

The baseline ("fallback") of every speedup is a fully spilled
target-major plan of the same geometry (``memory_budget=0`` /
``plan_budget=0``): nothing frozen, every far row and near kernel
rebuilt from geometry on each application — what ``Treecode.evaluate``
runs.  It is compiled outside the timer, as the interaction lists are.

Two benchmark suites share this driver:

* **BENCH_3** (target-major plans) — treecode matvec latency at n in
  {2k, 10k, 50k} plus a BEM block at ~10k panels where the second and
  later applications must be >= 3x faster than the spilled plan.
* **BENCH_4** (cluster-cluster plans) — the dual-traversal
  ``mode="cluster"`` plan at n=50k must beat the spilled matvec by
  >= 4x inside the 512 MiB default budget with zero far spills, stay
  within its own Theorem-1 ledger of a sampled direct sum, and agree
  with the target-major plan within the two ledgers combined.  The
  suite also measures the variable-order (``tol``-compiled) plan
  against the minimal uniform-degree plan with the same Theorem-1
  guarantee: >= 2x matvec speedup with no memory growth at n=50k, and
  the variable plan's ledger must stay within the target tolerance.

Run standalone (pytest-free so CI can gate on the exit code)::

    PYTHONPATH=src python benchmarks/bench_plan.py               # BENCH_3.json
    PYTHONPATH=src python benchmarks/bench_plan.py --smoke       # BENCH_3 smoke
    PYTHONPATH=src python benchmarks/bench_plan.py --mode full   # BENCH_4.json
    PYTHONPATH=src python benchmarks/bench_plan.py --mode smoke  # BENCH_4 CI gate

``--smoke`` compiles a small target-major plan (n=5000), runs 5 matvecs
through both paths, and exits non-zero unless the compiled path is no
slower than the spilled one and agrees to 1e-12.  ``--mode smoke``
compiles a cluster plan at n=8000, projects its memory to the n=50k
scale, and exits non-zero if the projection exceeds the 512 MiB budget
or the speedup over the spilled plan is below 2x.
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
from repro.bem import OperatorGeometry, SingleLayerOperator  # noqa: E402
from repro.bem.geometries import box, icosphere  # noqa: E402
from repro.data.distributions import make_distribution, unit_charges  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TOL = 1e-12


def _time_best(fn, repeats: int):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_treecode(n: int, repeats: int, alpha: float = 0.5, p0: int = 4) -> dict:
    pts = make_distribution("uniform", n, seed=n)
    q = unit_charges(n, seed=n + 1, signed=True)
    q2 = unit_charges(n, seed=n + 2, signed=True)
    tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=p0, alpha=alpha), alpha=alpha)
    lists = tc.traverse(tc.tree.points, self_targets=True)
    spilled = tc.compile_plan(lists=lists, memory_budget=0)
    t_fb, ref = _time_best(lambda: spilled.execute(q2), repeats)
    plan = tc.compile_plan(lists=lists)
    t_plan, res = _time_best(lambda: plan.execute(q2), repeats)
    diff = float(np.max(np.abs(res.potential - ref.potential)))
    return {
        "n": n,
        "compile_s": plan.compile_time,
        "plan_mb": plan.memory_bytes / 1e6,
        "far_spilled": plan.n_far_spilled,
        "near_spilled": plan.n_near_spilled,
        "fallback_matvec_s": t_fb,
        "plan_matvec_s": t_plan,
        "speedup": t_fb / t_plan,
        "max_abs_diff": diff,
    }


def bench_bem(resolution: int, repeats: int, n_gauss: int = 6, alpha: float = 0.5) -> dict:
    # 12 * resolution^2 panels; resolution=29 gives ~10k
    mesh = box(resolution=resolution)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 1.5, mesh.n_vertices)
    geometry = OperatorGeometry(mesh, n_gauss=n_gauss)
    policy = AdaptiveChargeDegree(p0=4, alpha=alpha)
    fb = SingleLayerOperator(
        mesh, n_gauss=n_gauss, degree_policy=policy, alpha=alpha,
        plan_budget=0, geometry=geometry,
    )
    op = SingleLayerOperator(
        mesh, n_gauss=n_gauss, degree_policy=policy, alpha=alpha, geometry=geometry,
    )
    fb.matvec(x)  # compiles the spilled plan (and the shared lists)
    t_fb, ref = _time_best(lambda: fb.matvec(x), repeats)
    op.matvec(x)  # the first application compiles
    t_plan, v = _time_best(lambda: op.matvec(x), repeats)
    plan = op._plan
    return {
        "panels": mesh.n_triangles,
        "quad_points": mesh.n_triangles * n_gauss,
        "targets": mesh.n_vertices,
        "compile_s": plan.compile_time,
        "plan_mb": plan.memory_bytes / 1e6,
        "far_spilled": plan.n_far_spilled,
        "near_spilled": plan.n_near_spilled,
        "fallback_matvec_s": t_fb,
        "plan_matvec_s": t_plan,
        "speedup": t_fb / t_plan,
        "max_abs_diff": float(np.max(np.abs(v - ref))),
    }


def bench_cluster(
    n: int,
    repeats: int,
    alpha: float = 0.5,
    p0: int = 4,
    sample: int = 200,
    check_vs_pc: bool = False,
) -> dict:
    """Cluster-cluster plan vs the spilled target-major matvec at one size.

    Timing uses bounds-free runs of both paths; correctness is judged
    separately with bounds-enabled runs — the cluster result must sit
    within its own Theorem-1 ledger of a sampled direct sum, and within
    the combined ledgers of the target-major (particle-cluster) result.
    """
    from repro.direct import pairwise_potential

    pts = make_distribution("uniform", n, seed=n)
    q = unit_charges(n, seed=n + 1, signed=True)
    q2 = unit_charges(n, seed=n + 2, signed=True)
    tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=p0, alpha=alpha), alpha=alpha)
    lists = tc.traverse(tc.tree.points, self_targets=True)
    spilled = tc.compile_plan(lists=lists, memory_budget=0)
    t_fb, _ = _time_best(lambda: spilled.execute(q2), repeats)
    plan = tc.compile_plan(mode="cluster")
    t_plan, _ = _time_best(lambda: plan.execute(q2), repeats)

    # correctness: bounds-enabled cluster run vs a sampled direct sum
    bplan = tc.compile_plan(mode="cluster", accumulate_bounds=True)
    bres = bplan.execute(q2)
    idx = np.unique(np.linspace(0, n - 1, sample).astype(np.int64))
    exact = pairwise_potential(pts[idx], pts, q2, exclude=idx)
    err_direct = np.abs(bres.potential[idx] - exact)
    ok_direct = bool(np.all(err_direct <= bres.error_bound[idx] + TOL))

    row = {
        "n": n,
        "compile_s": plan.compile_time,
        "plan_mb": plan.memory_bytes / 1e6,
        "box_pairs": plan.n_box_pairs,
        "far_spilled": plan.n_far_spilled,
        "near_spilled": plan.n_near_spilled,
        "fallback_matvec_s": t_fb,
        "plan_matvec_s": t_plan,
        "speedup": t_fb / t_plan,
        "direct_sample_within_ledger": ok_direct,
        "direct_sample_max_err": float(np.max(err_direct)),
        "direct_sample_min_headroom": float(
            np.min(bres.error_bound[idx] - err_direct)
        ),
    }
    if check_vs_pc:
        pc = tc.compile_plan(
            lists=lists, accumulate_bounds=True, memory_budget=0
        ).execute(q2)
        gap = np.abs(bres.potential - pc.potential)
        budget = bres.error_bound + pc.error_bound
        row["pc_within_combined_ledgers"] = bool(np.all(gap <= budget + TOL))
        row["pc_max_gap"] = float(np.max(gap))
        row["pc_min_headroom"] = float(np.min(budget - gap))
    return row


def run_full(out_path: pathlib.Path) -> int:
    report = {"bench": "BENCH_3", "mode": "full", "treecode": [], "bem": None}
    for n, repeats in ((2000, 5), (10000, 3), (50000, 1)):
        row = bench_treecode(n, repeats)
        report["treecode"].append(row)
        print(
            f"treecode n={n:6d}: fallback {row['fallback_matvec_s'] * 1e3:8.1f} ms, "
            f"plan {row['plan_matvec_s'] * 1e3:8.1f} ms ({row['speedup']:.1f}x), "
            f"compile {row['compile_s']:.2f} s, {row['plan_mb']:.0f} MB, "
            f"diff {row['max_abs_diff']:.2e}"
        )
    bem = bench_bem(resolution=29, repeats=3)
    report["bem"] = bem
    print(
        f"bem {bem['panels']} panels: fallback {bem['fallback_matvec_s'] * 1e3:.1f} ms, "
        f"plan {bem['plan_matvec_s'] * 1e3:.1f} ms ({bem['speedup']:.1f}x), "
        f"compile {bem['compile_s']:.2f} s, {bem['plan_mb']:.0f} MB, "
        f"diff {bem['max_abs_diff']:.2e}"
    )
    ok_speed = bem["speedup"] >= 3.0
    ok_diff = all(
        r["max_abs_diff"] <= TOL for r in report["treecode"]
    ) and bem["max_abs_diff"] <= TOL
    report["acceptance"] = {"bem_speedup_3x": ok_speed, "max_abs_diff_1e12": ok_diff}
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    if not (ok_speed and ok_diff):
        print("ACCEPTANCE FAILED", file=sys.stderr)
        return 1
    return 0


def run_smoke(out_path: pathlib.Path | None = None) -> int:
    """CI gate: compile a small plan, run 5 matvecs through it and
    through the fully spilled plan, require the compiled path to be no
    slower and exact to 1e-12.

    With ``out_path`` a BENCH_3-shaped smoke report is written for the
    regression ledger (``python -m repro bench``)."""
    n, n_matvecs = 5000, 5
    pts = make_distribution("uniform", n, seed=1)
    q = unit_charges(n, seed=2, signed=True)
    tc = Treecode(pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5)
    lists = tc.traverse(tc.tree.points, self_targets=True)
    charges = [unit_charges(n, seed=10 + i, signed=True) for i in range(n_matvecs)]
    spilled = tc.compile_plan(lists=lists, memory_budget=0)

    t0 = time.perf_counter()
    refs = [spilled.execute(qi) for qi in charges]
    t_fb = time.perf_counter() - t0

    plan = tc.compile_plan(lists=lists)
    t0 = time.perf_counter()
    results = [plan.execute(qi) for qi in charges]
    t_plan = time.perf_counter() - t0

    diff = max(
        float(np.max(np.abs(r.potential - ref.potential)))
        for r, ref in zip(results, refs)
    )
    print(
        f"smoke n={n}, {n_matvecs} matvecs: fallback {t_fb:.2f} s, "
        f"compiled {t_plan:.2f} s (compile {plan.compile_time:.2f} s), "
        f"max diff {diff:.2e}"
    )
    if out_path is not None:
        report = {
            "bench": "BENCH_3",
            "mode": "smoke",
            "treecode": [
                {
                    "n": n,
                    "compile_s": plan.compile_time,
                    "plan_mb": plan.memory_bytes / 1e6,
                    "far_spilled": plan.n_far_spilled,
                    "near_spilled": plan.n_near_spilled,
                    "fallback_matvec_s": t_fb / n_matvecs,
                    "plan_matvec_s": t_plan / n_matvecs,
                    "speedup": t_fb / t_plan,
                    "max_abs_diff": diff,
                }
            ],
            "bem": None,
        }
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
    if diff > TOL:
        print(f"FAIL: plan/fallback disagreement {diff:.2e} > {TOL}", file=sys.stderr)
        return 1
    if t_plan > t_fb:
        print(f"FAIL: compiled matvecs slower ({t_plan:.2f} s > {t_fb:.2f} s)", file=sys.stderr)
        return 1
    print("smoke OK")
    return 0


def bench_variable_order(n: int, repeats: int, alpha: float = 0.5, p0: int = 4) -> dict:
    """Variable-order cluster plan vs the minimal uniform-degree plan
    carrying the same Theorem-1 guarantee.

    The target tolerance is the baseline (adaptive-degree) cluster
    plan's own a-posteriori ledger maximum, so every plan in the
    comparison promises the same worst-case accuracy.  The uniform
    plan must hold the selection's maximum degree at every interaction;
    the variable plan holds it only where the bound demands it — the
    speedup and memory ratio measure exactly that waste.
    """
    from repro.core.degree import FixedDegree

    pts = make_distribution("uniform", n, seed=n)
    q = unit_charges(n, seed=n + 1, signed=True)
    q2 = unit_charges(n, seed=n + 2, signed=True)
    tc = Treecode(
        pts, q, degree_policy=AdaptiveChargeDegree(p0=p0, alpha=alpha), alpha=alpha
    )
    base = tc.compile_plan(mode="cluster", accumulate_bounds=True)
    tol = float(base.execute(q2).error_bound.max())

    var = tc.compile_plan(mode="cluster", tol=tol)
    p_max = int(var.pair_degrees.max()) if var.pair_degrees.size else 0
    tcf = Treecode(pts, q, degree_policy=FixedDegree(p_max), alpha=alpha)
    fixed = tcf.compile_plan(mode="cluster")
    t_var, _ = _time_best(lambda: var.execute(q2), repeats)
    t_fixed, _ = _time_best(lambda: fixed.execute(q2), repeats)

    varb = tc.compile_plan(mode="cluster", tol=tol, accumulate_bounds=True)
    ledger = float(varb.execute(q2).error_bound.max())
    return {
        "n": n,
        "tol": tol,
        "degree_min": int(var.pair_degrees.min()) if var.pair_degrees.size else 0,
        "degree_max": p_max,
        "fixed_matvec_s": t_fixed,
        "variable_matvec_s": t_var,
        "variable_order_speedup": t_fixed / t_var,
        "fixed_plan_mb": fixed.memory_bytes / 1e6,
        "variable_plan_mb": var.memory_bytes / 1e6,
        "variable_order_mem_ratio": var.memory_bytes / fixed.memory_bytes,
        "ledger_max": ledger,
        "variable_order_ledger_headroom": tol - ledger,
    }


def run_full_cluster(out_path: pathlib.Path) -> int:
    """BENCH_4: cluster-cluster plans at n in {10k, 50k}."""
    budget_mb = 512 * 1024 * 1024 / 1e6
    report = {"bench": "BENCH_4", "mode": "full", "treecode_cluster": []}
    for n, repeats, vs_pc in ((10000, 2, True), (50000, 1, False)):
        row = bench_cluster(n, repeats, check_vs_pc=vs_pc)
        report["treecode_cluster"].append(row)
        print(
            f"cluster n={n:6d}: fallback {row['fallback_matvec_s'] * 1e3:8.1f} ms, "
            f"plan {row['plan_matvec_s'] * 1e3:8.1f} ms ({row['speedup']:.1f}x), "
            f"compile {row['compile_s']:.2f} s, {row['plan_mb']:.0f} MB, "
            f"{row['box_pairs']} box pairs, "
            f"direct-in-ledger {row['direct_sample_within_ledger']}"
            + (
                f", pc-in-ledgers {row['pc_within_combined_ledgers']}"
                if vs_pc
                else ""
            )
        )
    vo = bench_variable_order(50000, repeats=1)
    report["variable_order"] = vo
    print(
        f"variable-order n=50000 (tol {vo['tol']:.2e}, degrees "
        f"{vo['degree_min']}..{vo['degree_max']}): uniform p={vo['degree_max']} "
        f"{vo['fixed_matvec_s'] * 1e3:8.1f} ms, variable "
        f"{vo['variable_matvec_s'] * 1e3:8.1f} ms "
        f"({vo['variable_order_speedup']:.1f}x), memory "
        f"{vo['variable_plan_mb']:.0f}/{vo['fixed_plan_mb']:.0f} MB "
        f"({vo['variable_order_mem_ratio']:.2f}x), ledger headroom "
        f"{vo['variable_order_ledger_headroom']:.2e}"
    )
    big = report["treecode_cluster"][-1]
    acceptance = {
        "speedup_4x_at_50k": big["speedup"] >= 4.0,
        "memory_within_512mib_at_50k": big["plan_mb"] <= budget_mb,
        "zero_far_spills": all(
            r["far_spilled"] == 0 for r in report["treecode_cluster"]
        ),
        "direct_sample_within_ledger": all(
            r["direct_sample_within_ledger"] for r in report["treecode_cluster"]
        ),
        "pc_within_combined_ledgers": all(
            r.get("pc_within_combined_ledgers", True)
            for r in report["treecode_cluster"]
        ),
        "variable_order_speedup_2x_at_50k": vo["variable_order_speedup"] >= 2.0,
        "variable_order_memory_reduction": vo["variable_order_mem_ratio"] <= 1.0,
        "variable_order_ledger_within_tol": (
            vo["variable_order_ledger_headroom"] >= 0.0
        ),
    }
    report["acceptance"] = acceptance
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    if not all(acceptance.values()):
        failed = [k for k, v in acceptance.items() if not v]
        print(f"ACCEPTANCE FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def run_smoke_cluster(out_path: pathlib.Path | None = None) -> int:
    """CI gate for cluster plans: small instance, projected-memory and
    speedup thresholds.

    Plan memory is dominated by terms linear in the box-pair count and
    the particle count, and for uniform clouds both grow ~linearly in
    n, so scaling the measured footprint by 50k/n is a cheap proxy for
    the n=50k plan the full benchmark builds (approximate — near-field
    block shapes shift with tree depth; the full suite measures the
    real footprint).
    """
    n = 8000
    budget = 512 * 1024 * 1024
    row = bench_cluster(n, repeats=1, check_vs_pc=True)
    projected_mb = row["plan_mb"] * (50000 / n)
    print(
        f"cluster smoke n={n}: fallback {row['fallback_matvec_s']:.2f} s, "
        f"plan {row['plan_matvec_s']:.2f} s ({row['speedup']:.1f}x), "
        f"{row['plan_mb']:.0f} MB -> projected {projected_mb:.0f} MB at n=50k"
    )
    vo = bench_variable_order(5000, repeats=1)
    print(
        f"variable-order smoke n=5000: uniform p={vo['degree_max']} "
        f"{vo['fixed_matvec_s']:.2f} s, variable {vo['variable_matvec_s']:.2f} s "
        f"({vo['variable_order_speedup']:.1f}x), memory ratio "
        f"{vo['variable_order_mem_ratio']:.2f}, ledger headroom "
        f"{vo['variable_order_ledger_headroom']:.2e}"
    )
    if out_path is not None:
        report = {
            "bench": "BENCH_4",
            "mode": "smoke",
            "treecode_cluster": [row],
            "variable_order": vo,
            "projected_mb_50k": projected_mb,
        }
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
    ok = True
    if projected_mb > budget / 1e6:
        print(
            f"FAIL: projected plan memory {projected_mb:.0f} MB exceeds "
            f"the {budget / 1e6:.0f} MB budget",
            file=sys.stderr,
        )
        ok = False
    if row["speedup"] < 2.0:
        print(f"FAIL: speedup {row['speedup']:.2f}x < 2x", file=sys.stderr)
        ok = False
    if row["far_spilled"] != 0:
        print(f"FAIL: {row['far_spilled']} far spills (expected 0)", file=sys.stderr)
        ok = False
    if not row["direct_sample_within_ledger"]:
        print("FAIL: sampled direct error exceeds the Theorem-1 ledger", file=sys.stderr)
        ok = False
    if not row["pc_within_combined_ledgers"]:
        print(
            "FAIL: cluster vs target-major gap exceeds the combined ledgers",
            file=sys.stderr,
        )
        ok = False
    if vo["variable_order_speedup"] < 2.0:
        print(
            f"FAIL: variable-order speedup {vo['variable_order_speedup']:.2f}x "
            "< 2x over the uniform-degree plan",
            file=sys.stderr,
        )
        ok = False
    if vo["variable_order_mem_ratio"] > 1.0:
        print(
            f"FAIL: variable-order plan uses {vo['variable_order_mem_ratio']:.2f}x "
            "the uniform plan's memory (expected <= 1.0)",
            file=sys.stderr,
        )
        ok = False
    if vo["variable_order_ledger_headroom"] < 0.0:
        print(
            "FAIL: variable-order ledger exceeds the target tolerance",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print("cluster smoke OK")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true", help="small CI smoke check (BENCH_3)"
    )
    ap.add_argument(
        "--mode",
        choices=["smoke", "full"],
        default=None,
        help="run the BENCH_4 cluster-plan suite: 'smoke' is the CI gate, "
        "'full' writes BENCH_4.json",
    )
    ap.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output path for the JSON report (optional for smoke modes)",
    )
    args = ap.parse_args(argv)
    if args.mode == "smoke":
        return run_smoke_cluster(args.out)
    if args.mode == "full":
        return run_full_cluster(args.out or REPO_ROOT / "BENCH_4.json")
    if args.smoke:
        return run_smoke(args.out)
    return run_full(args.out or REPO_ROOT / "BENCH_3.json")


if __name__ == "__main__":
    sys.exit(main())
