"""Benchmark regression ledger: ``python -m repro bench {record,compare}``.

The plan benchmarks (``benchmarks/bench_plan.py``) emit ``BENCH_*.json``
reports — one-shot snapshots that answer "is this build fast enough"
but not "is it slower than last week".  This module keeps the history:
``record`` flattens a report into named numeric *series* and appends
them to an append-only JSONL ledger (``benchmarks/history.jsonl`` by
default); ``compare`` checks a fresh report against the ledger's
baselines and fails (nonzero exit) on regression, printing a markdown
delta table suitable for a CI job summary.

Series names encode the instance, so differently-sized runs never mix::

    treecode/n5000/speedup        cluster/n8000/plan_mb
    treecode/n5000/plan_matvec_s  cluster/n8000/direct_sample_min_headroom
    bem/p10092/speedup            treecode/n5000/max_abs_diff

Baselines are the median of the last :data:`BASELINE_WINDOW` ledger
entries carrying the series, which rides out one-off CI noise without
letting a slow drift redefine "normal" too quickly.

Tolerance rules are matched on the series *metric* (the last path
component):

* ``speedup`` — higher is better; fail when the new value drops more
  than 50% below baseline (CI machines are noisy; a real plan-path
  regression collapses the ratio entirely).
* ``plan_mb`` — lower is better; fail when memory grows >25% over
  baseline (plan layouts are deterministic, so growth means a real
  structural change).
* ``max_abs_diff`` — absolute ceiling ``1e-11``, history-independent
  (the plan/fallback agreement contract).
* ``*_headroom`` — absolute floor ``0`` (a Theorem-1 ledger violation
  is a correctness bug, not a perf regression).
* ``supervision_overhead`` — absolute ceiling ``0.05``,
  history-independent: supervised execution (heartbeats + watchdog,
  ``benchmarks/bench_supervisor.py``) may cost at most 5% over a bare
  thread pool of the same plan units on a clean run (median of paired,
  alternating rounds).
* ``variable_order_speedup`` — absolute floor ``2.0``,
  history-independent: the tol-compiled variable-order cluster plan
  must stay >= 2x faster than the minimal uniform-degree plan with the
  same Theorem-1 guarantee.
* ``variable_order_mem_ratio`` — absolute ceiling ``1.0``: the
  variable-order plan may not outgrow the uniform plan it replaces.
* ``m2l_rotation_speedup`` — absolute floor ``2.0``,
  history-independent: the rotation-accelerated O((p+1)^3) M2L must
  stay >= 2x faster than the dense O((p+1)^4) path at the same degree
  on the ``p >= 8`` rows of ``benchmarks/bench_kernels.py``'s BENCH_6
  report (lower degrees report the ratio informationally as
  ``rotation_speedup``).
* ``m2l_backend_rel_diff`` — absolute ceiling ``1e-12``: the
  complex128 dense/rotation agreement contract.
* ``batched_matvec_throughput`` — absolute floor ``2.0``,
  history-independent: executing a ``k = 8`` right-hand-side batch
  through one compiled plan (``benchmarks/bench_batch.py``, BENCH_7)
  must deliver >= 2x the per-vector throughput of eight sequential
  single-vector applications — the BLAS-3 batching contract.
* ``*_s`` (timings) and everything else — informational: reported in
  the table, never gating (wall times on shared CI are too noisy to
  fail on directly; ``speedup`` is the noise-immune ratio).

With ``compare``, the delta table is also appended to the file named
by ``$GITHUB_STEP_SUMMARY`` when that variable is set, so CI runs
surface it on the workflow summary page without extra plumbing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

__all__ = [
    "LEDGER_VERSION",
    "BASELINE_WINDOW",
    "extract_series",
    "load_history",
    "record",
    "compare",
    "markdown_table",
    "bench_main",
]

LEDGER_VERSION = 1
BASELINE_WINDOW = 5  #: history entries per series in the median baseline
DEFAULT_HISTORY = os.path.join("benchmarks", "history.jsonl")

#: metric name -> (rule, parameter); anything unmatched is informational
_RULES: dict[str, tuple[str, float]] = {
    "speedup": ("min_ratio", 0.5),  # fail below 50% of baseline
    "plan_mb": ("max_ratio", 1.25),  # fail above 125% of baseline
    "max_abs_diff": ("abs_max", 1e-11),
    "headroom": ("abs_min", 0.0),
    "supervision_overhead": ("abs_max", 0.05),
    # variable-order vs minimal uniform-degree plan, same Theorem-1
    # guarantee: the speedup floor and no-memory-growth ceiling are the
    # acceptance criteria themselves, history-independent
    "variable_order_speedup": ("abs_min", 2.0),
    "variable_order_mem_ratio": ("abs_max", 1.0),
    # rotation-based M2L vs dense at identical degree (BENCH_6): the
    # O((p+1)^3) pipeline must keep paying for itself at p >= 8, and
    # the two backends must agree to 1e-12 in complex128
    "m2l_rotation_speedup": ("abs_min", 2.0),
    "m2l_backend_rel_diff": ("abs_max", 1e-12),
    # multi-RHS batching (BENCH_7): one batched pass must beat
    # sequential single-vector applications by 2x per vector
    "batched_matvec_throughput": ("abs_min", 2.0),
}

#: per-row fields worth tracking as series (present or not per bench)
_ROW_METRICS = (
    "speedup",
    "plan_mb",
    "compile_s",
    "plan_matvec_s",
    "fallback_matvec_s",
    "max_abs_diff",
    "direct_sample_min_headroom",
    "pc_min_headroom",
    "supervision_overhead",
    "unsupervised_s",
    "supervised_s",
    "variable_order_speedup",
    "variable_order_mem_ratio",
    "variable_order_ledger_headroom",
    "fixed_matvec_s",
    "variable_matvec_s",
    "m2l_rotation_speedup",
    "rotation_speedup",
    "m2l_backend_rel_diff",
    "dense_s",
    "rotation_s",
    "batched_matvec_throughput",
    "single_matvec_s",
    "batched_s",
)


def _rule_for(series: str) -> tuple[str, float] | None:
    metric = series.rsplit("/", 1)[-1]
    if metric in _RULES:
        return _RULES[metric]
    if metric.endswith("_headroom"):
        return _RULES["headroom"]
    return None


def _row_series(prefix: str, row: dict, out: dict) -> None:
    for metric in _ROW_METRICS:
        val = row.get(metric)
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            out[f"{prefix}/{metric}"] = float(val)


def extract_series(report: dict) -> dict:
    """Flatten one ``BENCH_*.json`` report into ``{series: value}``.

    Handles the BENCH_3 shape (``treecode`` rows + optional ``bem``
    block), the BENCH_4 shape (``treecode_cluster`` rows + optional
    ``variable_order`` block), the BENCH_5 shape (``supervisor``
    block), the BENCH_6 shape (``m2l_backends`` rows) and the BENCH_7
    shape (``batch`` rows); unknown
    report layouts yield an empty dict rather than an error, so the
    ledger tolerates future benches until series are defined for them.
    """
    series: dict = {}
    for row in report.get("treecode") or []:
        _row_series(f"treecode/n{row.get('n')}", row, series)
    bem = report.get("bem")
    if bem:
        _row_series(f"bem/p{bem.get('panels')}", bem, series)
    for row in report.get("treecode_cluster") or []:
        _row_series(f"cluster/n{row.get('n')}", row, series)
    vo = report.get("variable_order")
    if vo:
        _row_series(f"variable_order/n{vo.get('n')}", vo, series)
    sup = report.get("supervisor")
    if sup:
        _row_series(f"supervisor/n{sup.get('n')}", sup, series)
    for row in report.get("m2l_backends") or []:
        _row_series(f"m2l/p{row.get('p')}", row, series)
    for row in report.get("batch") or []:
        _row_series(f"batch/n{row.get('n')}k{row.get('k')}", row, series)
    proj = report.get("projected_mb_50k")
    if isinstance(proj, (int, float)):
        series["cluster/projected_mb_50k"] = float(proj)
    return series


def load_history(path: str) -> list[dict]:
    """All ledger entries, oldest first (missing file -> empty)."""
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def record(report_paths: list[str], history_path: str) -> list[dict]:
    """Append one ledger entry per report; returns the new entries."""
    entries = []
    directory = os.path.dirname(os.path.abspath(history_path))
    os.makedirs(directory, exist_ok=True)
    with open(history_path, "a") as fh:
        for path in report_paths:
            with open(path) as rf:
                report = json.load(rf)
            entry = {
                "v": LEDGER_VERSION,
                "recorded": time.time(),
                "source": os.path.basename(path),
                "bench": report.get("bench"),
                "mode": report.get("mode"),
                "series": extract_series(report),
            }
            fh.write(json.dumps(entry) + "\n")
            entries.append(entry)
    return entries


def _baseline(history: list[dict], series: str) -> float | None:
    vals = [
        e["series"][series]
        for e in history
        if series in e.get("series", {})
    ]
    if not vals:
        return None
    return float(statistics.median(vals[-BASELINE_WINDOW:]))


def compare(report_paths: list[str], history_path: str) -> tuple[list[dict], bool]:
    """Judge fresh reports against the ledger.

    Returns ``(rows, ok)``: one row per series with its baseline, new
    value, delta and status (``ok`` / ``REGRESSION`` / ``new`` /
    ``info``), and ``ok=False`` iff any series regressed.
    """
    history = load_history(history_path)
    rows: list[dict] = []
    ok = True
    for path in report_paths:
        with open(path) as rf:
            report = json.load(rf)
        for series, value in sorted(extract_series(report).items()):
            base = _baseline(history, series)
            rule = _rule_for(series)
            delta = None if base in (None, 0.0) else (value - base) / abs(base)
            status = "info"
            if rule is not None:
                kind, param = rule
                if kind == "abs_max":
                    status = "REGRESSION" if value > param else "ok"
                elif kind == "abs_min":
                    status = "REGRESSION" if value < param else "ok"
                elif base is None:
                    status = "new"
                elif kind == "min_ratio":
                    status = "REGRESSION" if value < base * param else "ok"
                elif kind == "max_ratio":
                    status = "REGRESSION" if value > base * param else "ok"
            if status == "REGRESSION":
                ok = False
            rows.append(
                {
                    "series": series,
                    "baseline": base,
                    "value": value,
                    "delta": delta,
                    "status": status,
                }
            )
    return rows, ok


def _fmt(val: float | None) -> str:
    if val is None:
        return "—"
    if val == 0:
        return "0"
    mag = abs(val)
    if mag >= 1e4 or mag < 1e-3:
        return f"{val:.3e}"
    return f"{val:.4g}"


def markdown_table(rows: list[dict]) -> str:
    """Render compare rows as a markdown delta table."""
    lines = [
        "| series | baseline | new | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for r in rows:
        delta = "—" if r["delta"] is None else f"{r['delta'] * 100:+.1f}%"
        mark = "**REGRESSION**" if r["status"] == "REGRESSION" else r["status"]
        lines.append(
            f"| {r['series']} | {_fmt(r['baseline'])} | {_fmt(r['value'])} "
            f"| {delta} | {mark} |"
        )
    return "\n".join(lines)


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark regression ledger over BENCH_*.json reports.",
    )
    parser.add_argument(
        "action",
        choices=["record", "compare"],
        help="'record' appends reports to the ledger; 'compare' judges "
        "them against it (nonzero exit on regression)",
    )
    parser.add_argument(
        "reports", nargs="+", metavar="REPORT", help="BENCH_*.json report files"
    )
    parser.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        metavar="FILE",
        help=f"ledger location (default: {DEFAULT_HISTORY})",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="with 'compare': also write the delta table to FILE",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="with 'compare': append the reports to the ledger when no "
        "series regressed (green CI runs extend the baseline)",
    )
    args = parser.parse_args(argv)

    for path in args.reports:
        if not os.path.exists(path):
            parser.error(f"report not found: {path}")

    if args.action == "record":
        entries = record(args.reports, args.history)
        n_series = sum(len(e["series"]) for e in entries)
        print(
            f"recorded {len(entries)} report(s), {n_series} series "
            f"-> {args.history}"
        )
        return 0

    rows, ok = compare(args.reports, args.history)
    table = markdown_table(rows)
    print(table)
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(table + "\n")
        print(f"delta table written to {args.markdown}")
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        # CI surfaces this file on the workflow summary page; append
        # (several compare steps may share one job)
        with open(step_summary, "a") as fh:
            fh.write("### bench compare\n\n" + table + "\n\n")
    if not ok:
        bad = [r["series"] for r in rows if r["status"] == "REGRESSION"]
        print(f"REGRESSION in: {', '.join(bad)}", file=sys.stderr)
        return 1
    if args.record:
        record(args.reports, args.history)
        print(f"ledger extended -> {args.history}")
    print("bench compare OK")
    return 0
