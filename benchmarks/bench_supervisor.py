"""BENCH_5 — supervision overhead on a clean (fault-free) run.

Supervised execution (:mod:`repro.robust.supervisor`) buys the hang
watchdog, the memory breaker, poison-unit quarantine and the
thread -> serial degradation ladder; this benchmark prices it.  The
same compiled cluster plan is executed through
:func:`repro.parallel.evaluate_plan_parallel` (every run is supervised)
and through a bare baseline — a ``ThreadPoolExecutor.map`` over
``plan.execute_unit`` with the ``check_finite`` output guard and an
ordered ``scatter_add`` merge, no retries, no fault sites, no watchdog.
Each of ``repeats`` (at least 7) rounds runs both sides back to back,
alternating which goes first, and the report carries the median of the
per-round ratios::

    supervision_overhead = median(t_supervised / t_unsupervised) - 1

A paired median cancels the drift a min over separate runs cannot:
both sides of a round see the same machine state, and one noisy round
moves the median by at most one rank.

which the regression ledger gates at an absolute ceiling of 5%
(``python -m repro bench compare``, rule ``supervision_overhead``).
Supervision must also be invisible in the output: the two results are
required to agree bitwise.

Run standalone (pytest-free so CI can gate on the exit code)::

    PYTHONPATH=src python benchmarks/bench_supervisor.py                # gate only
    PYTHONPATH=src python benchmarks/bench_supervisor.py --out BENCH_5.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import AdaptiveChargeDegree, Treecode  # noqa: E402
from repro.data.distributions import make_distribution, unit_charges  # noqa: E402
from repro.parallel import evaluate_plan_parallel  # noqa: E402
from repro.perf.scatter import scatter_add  # noqa: E402
from repro.robust.guards import check_finite  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
MAX_OVERHEAD = 0.05


def bench_supervision(
    n: int = 10000, workers: int = 2, n_units: int = 8, repeats: int = 7
) -> dict:
    pts = make_distribution("uniform", n, seed=n)
    q = unit_charges(n, seed=n + 1, signed=True)
    q2 = unit_charges(n, seed=n + 2, signed=True)
    tc = Treecode(
        pts, q, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5
    )
    plan = tc.compile_plan(mode="cluster", n_units=n_units)

    def unit(ctx, q_sorted, i):
        tids, vals = plan.execute_unit(ctx, q_sorted, i)
        return tids, check_finite("parallel.block", vals, context="plan unit output")

    def bare(q):
        q_sorted = plan.sort_charges(q)
        ctx = plan.form_coefficients(q_sorted)
        phi = np.zeros((plan.n_targets,) + q_sorted.shape[1:], dtype=np.float64)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map preserves unit order: the same merge order as the fleet
            for tids, vals in pool.map(
                lambda i: unit(ctx, q_sorted, i), range(plan.n_units)
            ):
                scatter_add(phi, tids, vals)
        return plan.finalize(phi)[0]

    def run(supervise: bool):
        if supervise:
            return evaluate_plan_parallel(plan, q2, n_threads=workers).potential
        return bare(q2)

    run(False)  # warm caches so neither side pays first-touch costs
    times = {False: [], True: []}
    results = {}
    for r in range(repeats):
        # paired rounds; alternate which side runs first
        for supervise in (r % 2 == 1, r % 2 == 0):
            t0 = time.perf_counter()
            results[supervise] = run(supervise)
            times[supervise].append(time.perf_counter() - t0)
    ratios = np.array(times[True]) / np.array(times[False])

    bitwise = bool(np.array_equal(results[False], results[True]))
    return {
        "n": n,
        "workers": workers,
        "n_units": plan.n_units,
        "rounds": repeats,
        "unsupervised_s": float(np.median(times[False])),
        "supervised_s": float(np.median(times[True])),
        "round_ratios": ratios.tolist(),
        "supervision_overhead": float(np.median(ratios)) - 1.0,
        "bitwise_identical": bitwise,
        "max_abs_diff": float(
            np.max(np.abs(results[True] - results[False]))
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10000, help="particle count")
    ap.add_argument("--workers", type=int, default=2, help="thread-pool width")
    ap.add_argument(
        "--repeats", type=int, default=31, help="paired rounds (at least 7)"
    )
    ap.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the BENCH_5 JSON report here (for the regression ledger)",
    )
    args = ap.parse_args(argv)
    if args.repeats < 7:
        ap.error(f"--repeats must be >= 7, got {args.repeats}")

    row = bench_supervision(n=args.n, workers=args.workers, repeats=args.repeats)
    print(
        f"supervisor n={row['n']} ({row['n_units']} units, "
        f"{row['workers']} workers, median of {row['rounds']} paired rounds): "
        f"bare pool {row['unsupervised_s'] * 1e3:.1f} ms, "
        f"supervised {row['supervised_s'] * 1e3:.1f} ms "
        f"(overhead {row['supervision_overhead'] * 100:+.2f}%), "
        f"bitwise {row['bitwise_identical']}"
    )
    if args.out is not None:
        report = {"bench": "BENCH_5", "mode": "smoke", "supervisor": row}
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    ok = True
    if not row["bitwise_identical"]:
        print("FAIL: supervised result differs from the bare baseline", file=sys.stderr)
        ok = False
    if row["supervision_overhead"] > MAX_OVERHEAD:
        print(
            f"FAIL: supervision overhead {row['supervision_overhead'] * 100:.2f}% "
            f"> {MAX_OVERHEAD * 100:.0f}%",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print("supervision overhead OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
