"""Command-line experiment runner: ``python -m repro <experiment>``.

Each subcommand regenerates one of the paper's tables/figures (or an
ablation) and prints it in the format of
:mod:`repro.analysis.tables`.  ``--scale full`` runs paper-scale
instances (slow); the default ``small`` scale reproduces every shape in
minutes on a laptop.

Observability (see :mod:`repro.obs`):

* ``python -m repro profile <experiment>`` runs an experiment with
  tracing and metrics enabled and prints a phase/counter summary;
* ``--trace FILE`` writes a Chrome-trace JSON of the run (open it in
  Perfetto, https://ui.perfetto.dev);
* ``--metrics FILE`` writes the metrics registry (Prometheus text, or
  JSON when FILE ends in ``.json``);
* ``--report FILE`` (profile only) writes the full
  :class:`~repro.obs.RunRecorder` JSON report;
* ``--journal FILE`` appends a structured JSONL run journal (see
  :mod:`repro.obs.journal`): phase completions and every event of
  :data:`repro.obs.EVENTS`, fleet workers' included.

The flags also work on plain subcommands, implicitly enabling
observability for that run.

``python -m repro bench {record,compare}`` maintains the benchmark
regression ledger (see :mod:`repro.bench`): ``record`` ingests
``BENCH_*.json`` reports into ``benchmarks/history.jsonl``, ``compare``
checks the newest report against history with per-series tolerances and
exits nonzero on regression.

Parallelism: ``--workers N`` is the single worker-count knob of the
thread fleet (it sets ``REPRO_NUM_WORKERS``, which
:func:`repro.parallel.resolve_workers` reads everywhere); table2's
parallel-equals-serial check runs on that many workers.

Supervised execution (see :mod:`repro.robust.supervisor`): every
parallel plan run has worker heartbeats, the hang watchdog, the memory
breaker, poison-unit quarantine and the ``thread -> serial``
degradation ladder; ``--heartbeat-interval SECONDS`` /
``--unit-deadline SECONDS`` / ``--memory-budget MIB`` tune it.

``profile`` output gains a "supervision health" section whenever a
run absorbed any supervision event (reaps, quarantines, degradations,
memory sheds, breaker trips).

Fault tolerance (see :mod:`repro.robust`):

* ``--seed N`` makes every subcommand's random instances reproducible
  end to end (fault-injection runs, checkpointed resumes);
* ``--inject-faults SPEC`` arms the deterministic fault-injection
  harness (e.g. ``block_error:0.5,block_nan:0.1``) to exercise the
  retry/fallback/guard machinery;
* ``--checkpoint FILE`` (table3, alpha-sweep, cost-ratio) persists each
  completed step atomically; an interrupted sweep rerun with the same
  command resumes instead of restarting.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis.tables import fmt_count, format_series, format_table

__all__ = ["main"]


def _seed0(args) -> int:
    return 0 if args.seed is None else args.seed


def _make_checkpoint(args, experiment: str):
    if not args.checkpoint:
        return None
    from .robust import Checkpoint

    return Checkpoint(
        args.checkpoint,
        meta={
            "experiment": experiment,
            "scale": args.scale,
            "p0": args.p0,
            "alpha": args.alpha,
            "seed": args.seed,
        },
    )


def _table1(args) -> str:
    from .experiments import Table1Row, run_table1

    if args.scale == "full":
        structured = [4000, 8000, 16000, 32000, 64000]
        unstructured = [("gaussian", 32000), ("overlapping_gaussians", 48000)]
    elif args.scale == "smoke":
        # tiny instances sized for CI gates
        structured = [1000]
        unstructured = [("gaussian", 1500)]
    else:
        structured = [1000, 2000, 4000, 8000]
        unstructured = [("gaussian", 4000), ("overlapping_gaussians", 6000)]
    rows = run_table1(
        structured, unstructured, p0=args.p0, alpha=args.alpha, seed=args.seed
    )
    out = [format_table(Table1Row.HEADERS, [r.as_list() for r in rows],
                        title="Table 1 — error and multipole terms, original vs improved")]
    for r in rows:
        out.append(
            f"  {r.distribution} n={r.n}: terms(new)/terms(orig) = "
            f"{r.terms_new / r.terms_orig:.2f}, bound improvement = "
            f"{r.bound_orig / r.bound_new:.1f}x"
        )
    tol = getattr(args, "tol", None)
    if tol is not None:
        from .experiments import run_variable_order_case

        # the smoke scale also compiles each instance as a box-centred
        # cluster plan (dual MAC); its tolerance-driven degrees cost
        # O(p^4) per box pair, minutes per instance at larger scales
        modes = ("target", "cluster") if args.scale == "smoke" else ("target",)
        out.append(f"variable-order plans at tol={tol:g} (err <= ledger <= tol):")
        cases = [("uniform", n) for n in structured] + unstructured
        for dist, n in cases:
            s = None if args.seed is None else args.seed + n
            for mode in modes:
                vo = run_variable_order_case(
                    dist, n, tol, alpha=args.alpha, seed=s, mode=mode
                )
                flag = "ok" if vo["contained"] else "VIOLATED"
                out.append(
                    f"  {dist} n={n} {mode}: err {vo['max_err']:.3e} <= "
                    f"ledger {vo['max_ledger']:.3e} <= tol [{flag}], degrees "
                    f"{vo['p_min']}..{vo['p_max']}, terms {vo['terms']}"
                )
    return "\n".join(out)


def _fig2(args) -> str:
    from .experiments import run_fig2

    sizes = (
        [2000, 4000, 8000, 16000, 32000]
        if args.scale == "full"
        else [500, 1000, 2000, 4000, 8000]
    )
    data = run_fig2(sizes, p0=args.p0, alpha=args.alpha, seed=args.seed)
    parts = ["Figure 2 — error and computational cost vs n"]
    for name, (xs, ys) in data.series().items():
        parts.append(format_series(name, xs, ys, xlabel="n", ylabel=name))
    return "\n\n".join(parts)


def _table2(args) -> str:
    from .experiments import Table2Row, run_table2

    problems = (
        [("uniform40k", "uniform", 40000), ("non-uniform46k", "gaussian", 46000)]
        if args.scale == "full"
        else [("uniform8k", "uniform", 8000), ("non-uniform10k", "gaussian", 10000)]
    )
    rows = run_table2(
        problems,
        n_procs=32,
        p0=args.p0,
        alpha=args.alpha,
        seed=_seed0(args),
    )
    return format_table(
        Table2Row.HEADERS,
        [r.as_list() for r in rows],
        title="Table 2 — runtimes and modeled speedups (P=32)",
    )


def _table3(args) -> str:
    from .experiments import Table3Row, run_table3

    res = (14, 7) if args.scale == "full" else (8, 4)
    rows, gmres_info = run_table3(
        p0=args.p0,
        alpha=0.5,
        propeller_res=res[0],
        gripper_res=res[1],
        seed=_seed0(args),
        checkpoint=_make_checkpoint(args, "table3"),
        tol=getattr(args, "tol", None),
    )
    out = [
        format_table(
            Table3Row.HEADERS,
            [r.as_list() for r in rows],
            title="Table 3 — BEM single-iteration errors vs degree-9 reference",
        )
    ]
    for name, info in gmres_info.items():
        out.append(
            f"  {name}: {info['elements']} elements, {info['nodes']} nodes; "
            f"GMRES(10) {'converged' if info['converged'] else 'DID NOT converge'} "
            f"in {info['iterations']} iterations"
        )
    return "\n".join(out)


def _cost_ratio(args) -> str:
    from .experiments import run_cost_ratio

    sizes = [2000, 8000, 32000] if args.scale == "full" else [1000, 4000, 8000]
    headers, rows = run_cost_ratio(
        sizes,
        p0=args.p0,
        alpha=args.alpha,
        seed=_seed0(args),
        checkpoint=_make_checkpoint(args, "cost-ratio"),
    )
    return format_table(headers, rows, title="E6 — Theorem 5 cost-ratio check")


def _alpha(args) -> str:
    from .experiments import run_alpha_sweep

    headers, rows = run_alpha_sweep(
        p0=args.p0, seed=_seed0(args), checkpoint=_make_checkpoint(args, "alpha-sweep")
    )
    return format_table(headers, rows, title="A1 — MAC parameter sweep")


def _leaf(args) -> str:
    from .experiments import run_leaf_sweep

    headers, rows = run_leaf_sweep(p0=args.p0, alpha=args.alpha, seed=_seed0(args))
    return format_table(headers, rows, title="A2 — leaf-capacity sweep")


def _ordering(args) -> str:
    from .experiments import run_ordering_study

    headers, rows = run_ordering_study(alpha=args.alpha, seed=_seed0(args))
    return format_table(headers, rows, title="A3 — block-ordering study")


def _fmm(args) -> str:
    from .experiments import run_fmm_extension

    headers, rows = run_fmm_extension(p0=args.p0, seed=_seed0(args))
    return format_table(headers, rows, title="A4 — FMM degree-schedule extension")


_COMMANDS = {
    "table1": _table1,
    "fig2": _fig2,
    "table2": _table2,
    "table3": _table3,
    "cost-ratio": _cost_ratio,
    "alpha-sweep": _alpha,
    "leaf-sweep": _leaf,
    "ordering": _ordering,
    "fmm": _fmm,
}


def _metrics_format(path: str) -> str:
    return "json" if path.endswith(".json") else "text"


def _profile_summary(report: dict) -> str:
    """Human-readable phase/counter summary of a recorded run."""
    agg: dict[str, list] = {}
    for ev in report["spans"]:
        rec = agg.setdefault(ev["name"], [0, 0.0])
        rec[0] += 1
        rec[1] += ev["dur"]
    lines = [f"== profile: {report['name']} (wall {report['wall_time']:.3f}s) =="]
    lines.append(f"{'span':<28} {'calls':>8} {'total(s)':>10}")
    for name, (calls, total) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<28} {calls:>8} {total:>10.4f}")
    counters = report["metrics"].get("counters", {})
    flat = [
        f"{name}={val}"
        for name, val in sorted(counters.items())
        if not isinstance(val, dict) and not name.startswith("supervisor_")
    ]
    if flat:
        lines.append("counters: " + ", ".join(flat))
    health = _health_report(counters)
    if health:
        lines.append(health)
    degree_section = _degree_histogram_report(
        counters, report["metrics"].get("gauges", {})
    )
    if degree_section:
        lines.append(degree_section)
    hist_lines = []
    for name, val in sorted(report["metrics"].get("histograms", {}).items()):
        if isinstance(val, dict) and "series" in val:
            items = [(f"{name}{{{k}}}", v) for k, v in sorted(val["series"].items())]
        else:
            items = [(name, val)]
        for label, h in items:
            if not h.get("count"):
                continue
            qs = " ".join(
                f"{q}={h[q]:.3g}" for q in ("p50", "p95", "p99") if q in h
            )
            hist_lines.append(f"  {label:<32} n={h['count']:<6} {qs}")
    if hist_lines:
        lines.append("histogram quantiles:")
        lines.extend(hist_lines)
    return "\n".join(lines)


#: supervision counters -> health-report labels, in display order
_HEALTH_ROWS = [
    ("supervisor_heartbeat_misses", "heartbeat misses"),
    ("supervisor_reaps", "workers reaped (hang)"),
    ("supervisor_worker_deaths", "worker deaths"),
    ("supervisor_quarantines", "units quarantined"),
    ("supervisor_memory_sheds", "memory sheds"),
    ("supervisor_memory_shed_bytes", "bytes shed"),
    ("supervisor_breaker_trips", "breaker trips"),
    ("supervisor_degradations", "thread -> serial degradations"),
]


def _health_report(counters: dict) -> str:
    """Supervision health section of the profile summary: one line per
    nonzero ``supervisor_*`` counter, empty string when the run
    absorbed nothing."""
    rows = [
        (label, counters[name])
        for name, label in _HEALTH_ROWS
        if counters.get(name)
    ]
    extra = sorted(
        name
        for name, val in counters.items()
        if name.startswith("supervisor_")
        and val
        and name not in dict(_HEALTH_ROWS)
    )
    rows.extend((name, counters[name]) for name in extra)
    if not rows:
        return ""
    lines = ["supervision health:"]
    for label, val in rows:
        lines.append(f"  {label:<28} {val}")
    return "\n".join(lines)


def _degree_histogram_report(counters: dict, gauges: dict) -> str:
    """Variable-order section of the profile summary: the per-degree far
    interaction histogram (``plan_degree_bucket_pairs``) with a text
    bar per bucket, plus the compile-time ledger prediction when a
    tolerance-compiled plan ran.  Empty string when no plan recorded
    degree buckets."""
    hist = counters.get("plan_degree_bucket_pairs")
    if not isinstance(hist, dict) or not hist.get("series"):
        return ""
    series = {int(k): v for k, v in hist["series"].items()}
    total = sum(series.values())
    peak = max(series.values())
    lines = [f"degree buckets ({int(total)} far interactions):"]
    for p in sorted(series):
        cnt = series[p]
        bar = "#" * max(1, int(round(24 * cnt / peak)))
        lines.append(f"  p={p:<3} {int(cnt):>10}  {bar}")
    pred = gauges.get("plan_predicted_ledger_max")
    if pred is not None:
        lines.append(f"  predicted ledger max: {pred:.3e}")
    return "\n".join(lines)


def _run_profile(args) -> int:
    """The ``profile`` subcommand: run one experiment fully observed."""
    from .obs import RunRecorder

    rec = RunRecorder(args.target)
    with rec:
        out = _COMMANDS[args.target](args)
    print(out)
    print()
    print(_profile_summary(rec.report()))
    if args.trace:
        rec.write_trace(args.trace)
        print(f"trace written to {args.trace} (open in Perfetto)")
    if args.metrics:
        rec.write_metrics(args.metrics, fmt=_metrics_format(args.metrics))
        print(f"metrics written to {args.metrics}")
    if args.report:
        rec.save(args.report)
        print(f"report written to {args.report}")
    return 0


def _interrupted(args) -> int:
    if args.checkpoint and os.path.exists(args.checkpoint):
        print(
            f"\ninterrupted — completed steps saved to {args.checkpoint}; "
            "rerun the same command to resume",
            file=sys.stderr,
        )
    elif args.checkpoint:
        print(
            "\ninterrupted — no step completed yet, nothing checkpointed",
            file=sys.stderr,
        )
    else:
        print("\ninterrupted", file=sys.stderr)
    return 130


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "bench":
        # the bench ledger has its own record/compare grammar; dispatch
        # before the experiment parser sees (and rejects) it
        from .bench import bench_main

        return bench_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables, figures and ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all", "profile"],
        help="which experiment to run, or 'profile' to run one observed",
    )
    parser.add_argument(
        "target",
        nargs="?",
        metavar="TARGET",
        help="experiment to profile (only with the 'profile' subcommand)",
    )
    parser.add_argument(
        "--scale",
        choices=["smoke", "small", "full"],
        default="small",
        help="instance sizes: 'small' (minutes), 'full' (paper scale), or "
        "'smoke' (seconds; table1 shrinks to two tiny instances for CI "
        "gates and, with --tol, also checks them as cluster plans; other "
        "experiments fall back to 'small' sizes)",
    )
    parser.add_argument("--p0", type=int, default=4, help="base multipole degree")
    parser.add_argument("--alpha", type=float, default=0.4, help="MAC parameter")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="TOL",
        help="target far-field accuracy: compile variable-order plans whose "
        "per-interaction degrees keep every target's Theorem-1 error "
        "ledger <= TOL (table1 appends per-case containment checks; "
        "table3 adds a target-tol operator row)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for every random instance (default: per-instance "
        "historical seeds); makes fault-injection runs and checkpointed "
        "resumes reproducible end to end",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count of the parallel plan executor's thread fleet; "
        "overrides REPRO_NUM_WORKERS",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog scan period of the supervised worker fleet "
        "(default 0.05)",
    )
    parser.add_argument(
        "--unit-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fixed per-unit hang deadline for the watchdog (default: "
        "adaptive from observed p95 duration)",
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MIB",
        help="RSS budget of this process: above it the parallel executor "
        "sheds compiled-plan memory, then trips the breaker",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="arm the fault-injection harness, e.g. "
        "'block_error:0.5,block_nan:0.1' (see repro.robust.faults)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="atomic JSON checkpoint for resumable sweeps "
        "(table3, alpha-sweep, cost-ratio): rerun the same command to resume",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace JSON of the run (view in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics dump (Prometheus text; JSON if FILE ends in .json)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="with 'profile': write the full RunRecorder JSON report",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="append a structured JSONL run journal (run start/end, phases, "
        "plan compiles, recovery events, checkpoint writes)",
    )
    args = parser.parse_args(argv)

    if args.tol is not None:
        if args.tol <= 0:
            parser.error(f"--tol must be > 0, got {args.tol}")
        if args.experiment not in ("table1", "table3", "all") and not (
            args.experiment == "profile" and args.target in ("table1", "table3")
        ):
            parser.error(
                "--tol applies to table1 and table3 (directly, via profile, "
                "or 'all')"
            )

    if args.workers is not None:
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        from .parallel import ENV_WORKERS

        # one knob for every executor: resolve_workers() reads this env
        # var wherever a plan runs in parallel
        os.environ[ENV_WORKERS] = str(args.workers)

    for tune in ("heartbeat_interval", "unit_deadline", "memory_budget"):
        val = getattr(args, tune)
        if val is not None and val <= 0:
            parser.error(f"--{tune.replace('_', '-')} must be > 0, got {val}")
    from .robust import supervisor as _sup

    # like --workers: env vars are the wire format, read by
    # default_config() wherever a plan runs on the worker fleet
    if args.heartbeat_interval is not None:
        os.environ[_sup.ENV_HEARTBEAT_INTERVAL] = str(args.heartbeat_interval)
    if args.unit_deadline is not None:
        os.environ[_sup.ENV_UNIT_DEADLINE] = str(args.unit_deadline)
    if args.memory_budget is not None:
        os.environ[_sup.ENV_MEMORY_BUDGET] = str(args.memory_budget)

    def run() -> int:
        if args.inject_faults is not None:
            from .robust import FaultInjector, parse_fault_spec, set_injector
            from .robust.faults import active_injector

            try:
                rules = parse_fault_spec(args.inject_faults)
            except ValueError as exc:
                parser.error(str(exc))
            previous = active_injector()
            set_injector(FaultInjector(rules, seed=_seed0(args)))
            try:
                return _dispatch(parser, args)
            finally:
                set_injector(previous)
        return _dispatch(parser, args)

    if not args.journal:
        return run()

    from .obs import emit, journal

    code: int | None = None
    with journal.Journal(args.journal) as j:
        previous_journal = journal.set_journal(j)
        emit(
            "run_start",
            command=args.experiment,
            target=args.target,
            argv=argv,
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            inject_faults=args.inject_faults,
        )
        try:
            code = run()
            return code
        finally:
            status = (
                "ok" if code == 0
                else "interrupted" if code == 130
                else "error"
            )
            emit("run_end", status=status, exit_code=code)
            journal.set_journal(previous_journal)


def _dispatch(parser, args) -> int:
    checkpointable = {"table3", "alpha-sweep", "cost-ratio"}
    if args.checkpoint and args.experiment not in checkpointable and (
        args.experiment != "profile" or args.target not in checkpointable
    ):
        parser.error(
            "--checkpoint is supported for: " + ", ".join(sorted(checkpointable))
        )

    if args.experiment == "profile":
        if args.target not in _COMMANDS:
            parser.error(
                "profile requires one experiment to run: "
                + ", ".join(sorted(_COMMANDS))
            )
        try:
            return _run_profile(args)
        except KeyboardInterrupt:
            return _interrupted(args)
    if args.target is not None:
        parser.error("TARGET is only valid with the 'profile' subcommand")

    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    # --journal implies observability: phase events come from the tracer
    observe = bool(args.trace or args.metrics or args.journal)
    if observe:
        from .obs import metrics as obs_metrics
        from .obs import tracing

        was_enabled = tracing.is_enabled()
        tracing.get_tracer().clear()
        obs_metrics.REGISTRY.reset()
        tracing.enable()
    try:
        for name in names:
            print(_COMMANDS[name](args))
            print()
    except KeyboardInterrupt:
        return _interrupted(args)
    finally:
        if observe:
            tracing.set_enabled(was_enabled)
            if args.trace:
                tracing.get_tracer().export(args.trace)
            if args.metrics:
                if _metrics_format(args.metrics) == "json":
                    obs_metrics.REGISTRY.export_json(args.metrics)
                else:
                    obs_metrics.REGISTRY.export_text(args.metrics)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
