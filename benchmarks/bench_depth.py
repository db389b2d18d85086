"""Cluster-plan cut level: the cost model's choice against every cut.

A cluster plan built on ``Treecode(leaf_size=None)`` cuts its octree at
the level its cost model prices cheapest for compile plus one execute
(:func:`repro.perf.cluster._cut_terms`, ``_CUT_COST``).  This benchmark
compiles the plan at *every* candidate cut of a cloud, times compile
plus one execute (median of ``--repeats``), and sets each cut's
measured seconds next to its predicted ones.  The table and the JSON
also give each cut's compile and execute seconds (medians of their
own), beside the sum the gates use.

Modes::

    PYTHONPATH=src python benchmarks/bench_depth.py --mode smoke
    PYTHONPATH=src python benchmarks/bench_depth.py --mode full
    PYTHONPATH=src python benchmarks/bench_depth.py --fit

* ``smoke`` — the benchmark's n=3000 uniform cloud (±1 charges), for
  potential and ``compute="both"`` plans.  Fails if the chosen cut
  measures more than 15% slower than the best cut.
* ``full`` — adds n=20k uniform and Gaussian clouds, and fails unless
  the predicted ranking of the cuts matches the measured one (cuts
  predicted, or measured, within 10% of each other count as tied).
* ``--fit`` — measures the calibration clouds and prints the
  least-squares (non-negative, relative-error weighted) cost constants
  to paste into ``_CUT_COST``.

Cuts whose near field would not fit the memory budget are left out of
the choice; the benchmark still measures the first of them, so the
ranking shows why.  ``--out`` writes the JSON report (keep it outside
the repository).  BLAS threads should be pinned (``OPENBLAS_NUM_THREADS=1``)
for stable timings, as ``perfbench`` does.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import Treecode  # noqa: E402
from repro.data.distributions import make_distribution  # noqa: E402
from repro.perf.cluster import (  # noqa: E402
    _CUT_COST,
    _TRAVERSE_PAIR_S,
    ClusterPlan,
    _box_view,
    _cut_terms,
    _price_cuts,
)
from repro.perf.plan import DEFAULT_MEMORY_BUDGET  # noqa: E402
from repro.tree.dualtree import dual_traverse  # noqa: E402

#: chosen cut may measure at most this much slower than the best cut
SMOKE_SLACK = 0.15
#: cuts measured within this fraction of each other rank as tied
RANK_TIE = 0.10

SMOKE = [("uniform", 3000)]
FULL = SMOKE + [("uniform", 20000), ("gaussian", 20000)]
FIT = FULL + [("uniform", 8000), ("gaussian", 3000), ("gaussian", 8000)]


def cloud(dist: str, n: int):
    """The benchmark cloud: ``make_distribution`` points and ±1 charges,
    half of each sign (seed 1), as ``perfbench``'s uniform-cluster."""
    pts = make_distribution(dist, n)
    rng = np.random.default_rng(1)
    q = np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
    return pts, q


def candidates(tc: Treecode, compute: str) -> tuple[list, dict]:
    """Priced candidates of ``tc`` and the terms they were priced from."""
    grad = compute == "both"
    full, _, _ = _box_view(tc.tree)
    pairs = dual_traverse(full, tc.alpha)
    terms = _cut_terms(full, pairs, tc.p_eval, grad)
    return _price_cuts(terms, DEFAULT_MEMORY_BUDGET, grad), terms


def measure(tc: Treecode, q, compute: str, cuts: list, repeats: int) -> list:
    """Median seconds ``(total, compile, execute)`` of compile plus one
    execute at each of ``cuts`` (each a median of its own), the cuts
    taken in turn within every repeat so that a slow spell of the host
    reaches them all alike.  A cut that is not the full height compiles
    from its own traversal, so the full height's is taken out of its
    total and compile (the plan compiles it from the pricing
    traversal)."""
    top = tc.tree.height - 1
    times = {c: ([], [], []) for c in cuts}
    for _ in range(repeats):
        for c in cuts:
            t0 = time.perf_counter()
            plan = ClusterPlan(tc, tc.tree.points, compute=compute, cut=c)
            t1 = time.perf_counter()
            plan.execute(q)
            t2 = time.perf_counter()
            for acc, t in zip(times[c], (t2 - t0, t1 - t0, t2 - t1)):
                acc.append(t)
            del plan
    full, _, _ = _box_view(tc.tree)
    trav = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        dual_traverse(full, tc.alpha)
        trav.append(time.perf_counter() - t0)
    out = []
    for c in cuts:
        reuse = statistics.median(trav) if c == top else 0.0
        total, comp, exe = (statistics.median(t) for t in times[c])
        out.append((total - reuse, comp - reuse, exe))
    return out


def measured_cuts(cands: list) -> list:
    """Every cut that fits the budget, plus the coarsest-but-one that
    does not (its near field spills; measured to show it loses)."""
    keep = [c for c in cands if c["fits"]]
    over = [c for c in cands if not c["fits"]]
    if over:
        keep.insert(0, over[-1])
    return keep


def run_cloud(dist: str, n: int, compute: str, repeats: int) -> dict:
    pts, q = cloud(dist, n)
    tc = Treecode(pts, q)
    chosen = tc.compile_plan(mode="cluster", compute=compute).cut_level
    cands, terms = candidates(tc, compute)
    rows = []
    todo = measured_cuts(cands)
    timed = measure(tc, q, compute, [c["cut"] for c in todo], repeats)
    for c, (s, comp, exe) in zip(todo, timed):
        rows.append(dict(c, measured_s=s, compile_s=comp, execute_s=exe))
        print(
            f"  {dist:8s} n={n:6d} {compute:9s} cut {c['cut']}: predicted "
            f"{c['seconds']:7.3f} s, measured {s:7.3f} s "
            f"(compile {comp:6.3f} + execute {exe:6.3f}), "
            f"near {c['near_entries']:>11,d}, "
            f"pairs {c['box_pairs']:>8,d}, flops {c['m2l_flops']:.2e}"
            + ("" if c["fits"] else "  (over budget)"),
            flush=True,
        )
    fit = [r for r in rows if r["fits"]]
    best = min(fit, key=lambda r: r["measured_s"])
    got = next(r for r in fit if r["cut"] == chosen)
    return {
        "dist": dist,
        "n": n,
        "compute": compute,
        "chosen": chosen,
        "best": best["cut"],
        "chosen_over_best": got["measured_s"] / best["measured_s"],
        "ranking_ok": ranking_ok(rows),
        "cuts": rows,
        "terms": {k: np.asarray(v).tolist() for k, v in terms.items()},
    }


def ranking_ok(rows: list) -> bool:
    """Every pair of cuts the model orders (predicted more than
    ``RANK_TIE`` apart) measures in that order, up to a ``RANK_TIE``
    measured tie."""
    for a in rows:
        for b in rows:
            ordered = (1 + RANK_TIE) * a["seconds"] < b["seconds"]
            if ordered and a["measured_s"] > (1 + RANK_TIE) * b["measured_s"]:
                return False
    return True


def fit(repeats: int, out: pathlib.Path | None = None) -> dict:
    """Non-negative least squares of measured seconds on the terms,
    each row weighted by 1/measured (relative error)."""
    from scipy.optimize import nnls

    keys = list(_CUT_COST)
    A, y, runs = [], [], []
    for dist, n in FIT:
        for compute in ("potential", "both"):
            r = run_cloud(dist, n, compute, repeats)
            runs.append(r)
            cut_ix = {int(c): i for i, c in enumerate(r["terms"]["cut"])}
            for row in r["cuts"]:
                i = cut_ix[row["cut"]]
                A.append([r["terms"][k][i] for k in keys])
                # the forced compile, its own traversal included
                y.append(row["measured_s"] + _TRAVERSE_PAIR_S * r["terms"]["reuse"][i])
    if out is not None:
        out.write_text(json.dumps({"fit": runs}, indent=2) + "\n")
    A, y = np.asarray(A, dtype=float), np.asarray(y)
    w = 1.0 / y
    scale = np.abs(A).max(axis=0)
    scale[scale == 0] = 1.0
    coef, _ = nnls(A * w[:, None] / scale, y * w)
    coef = coef / scale
    pred = A @ coef
    print("relative residuals:", np.round(pred / y - 1, 3).tolist())
    print("_CUT_COST = {")
    for k, c in zip(keys, coef):
        print(f'    "{k}": {float(c):.4g},')
    print("}")
    per_pair = []
    for dist, n in FIT:
        tc = Treecode(*cloud(dist, n))
        full, _, _ = _box_view(tc.tree)
        ts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            pairs = dual_traverse(full, tc.alpha)
            ts.append(time.perf_counter() - t0)
        per_pair.append(statistics.median(ts) / (pairs.n_far + pairs.n_near))
    print(f"_TRAVERSE_PAIR_S = {statistics.median(per_pair):.3g}")
    return dict(zip(keys, coef.tolist()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("smoke", "full"), default="smoke")
    ap.add_argument("--fit", action="store_true", help="refit the cost constants")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)
    if args.fit:
        fit(args.repeats, args.out)
        return 0
    clouds = SMOKE if args.mode == "smoke" else FULL
    report = {"bench": "depth", "mode": args.mode, "clouds": []}
    for dist, n in clouds:
        for compute in ("potential", "both"):
            report["clouds"].append(run_cloud(dist, n, compute, args.repeats))
    ok = True
    for r in report["clouds"]:
        tag = f"{r['dist']} n={r['n']} {r['compute']}"
        print(
            f"{tag}: chosen cut {r['chosen']}, best cut {r['best']} "
            f"({r['chosen_over_best']:.2f}x), ranking "
            f"{'matches' if r['ranking_ok'] else 'DIFFERS'}"
        )
        if r["chosen_over_best"] > 1 + SMOKE_SLACK:
            ratio = r["chosen_over_best"]
            print(f"FAIL: {tag}: chosen cut {ratio:.2f}x the best", file=sys.stderr)
            ok = False
        if args.mode == "full" and not r["ranking_ok"]:
            print(f"FAIL: {tag}: predicted ranking differs", file=sys.stderr)
            ok = False
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
