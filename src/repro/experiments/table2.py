"""Experiment E4 — Table 2: parallel runtimes and speedups.

The paper times a single treecode iteration on a 32-processor SGI
Origin 2000 for two instances, uniform40k and non-uniform46k, for both
methods.  Here the measured serial evaluation is combined with the
machine model of :mod:`repro.parallel.machine` (driven by the measured
per-block work profile) to produce speedups; the compiled plan's work
units also run on the real worker fleet to verify parallel/serial
agreement and, on multi-core hosts, real wall-clock scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.degree import AdaptiveChargeDegree, FixedDegree
from ..core.treecode import Treecode
from ..data.distributions import make_distribution, unit_charges
from ..obs.tracing import stopwatch
from ..parallel import (
    MachineModel,
    evaluate_plan_parallel,
    make_blocks,
    profile_blocks,
    resolve_workers,
    simulate,
)

__all__ = ["Table2Row", "run_table2"]


@dataclass
class Table2Row:
    problem: str
    method: str
    serial_time: float  #: measured single-thread wall time (s)
    sim_speedup_cyclic: float  #: machine model, static block-cyclic schedule
    sim_speedup_lpt: float  #: machine model, dynamic (LPT) schedule
    sim_efficiency: float  #: LPT efficiency at n_procs
    fetch_terms: float  #: total distinct-cluster multipole terms fetched
    parallel_matches_serial: bool

    HEADERS = [
        "problem",
        "method",
        "serial(s)",
        "speedup(cyclic)",
        "speedup(LPT)",
        "efficiency",
        "fetch terms",
        "par==ser",
    ]

    def as_list(self):
        return [
            self.problem,
            self.method,
            self.serial_time,
            self.sim_speedup_cyclic,
            self.sim_speedup_lpt,
            self.sim_efficiency,
            self.fetch_terms,
            self.parallel_matches_serial,
        ]


def run_table2(
    problems: list[tuple[str, str, int]] | None = None,
    n_procs: int = 32,
    w: int = 64,
    p0: int = 4,
    alpha: float = 0.4,
    n_threads: int | None = None,
    seed: int = 0,
) -> list[Table2Row]:
    """Run both methods on each problem; default instances mirror the
    paper's uniform40k / non-uniform46k (scaled by the caller).

    ``n_threads=None`` resolves through
    :func:`~repro.parallel.resolve_workers` (``--workers`` /
    ``REPRO_NUM_WORKERS``, else 2 here).

    Each treecode compiles an evaluation plan whose work units run
    through :func:`~repro.parallel.evaluate_plan_parallel` on
    ``n_threads`` worker threads.  Every worker count records identical
    deterministic work counters (the plan's frozen interaction
    accounting), so a profiled ``--workers 2`` run can be compared
    counter-for-counter against a ``--workers 1`` one.

    ``par==ser`` holds when the parallel potential is bitwise equal to
    the serial ``plan.execute`` and within the plan tolerance (rtol
    1e-9, atol 1e-12) of ``tc.evaluate()``, which executes a fully
    spilled plan of the same lists (every row rebuilt from geometry).
    """
    n_threads = resolve_workers(n_threads, default=2)
    if problems is None:
        problems = [
            ("uniform10k", "uniform", 10000),
            ("non-uniform12k", "gaussian", 12000),
        ]
    rows = []
    model = MachineModel(n_procs=n_procs)
    for label, dist, n in problems:
        pts = make_distribution(dist, n, seed=seed + n)
        q = unit_charges(n, seed=seed + n + 1, signed=True)
        blocks = make_blocks(pts, w)
        for method, policy in (
            ("original", FixedDegree(p0)),
            ("new", AdaptiveChargeDegree(p0=p0, alpha=alpha)),
        ):
            tc = Treecode(pts, q, degree_policy=policy, alpha=alpha)
            with stopwatch("table2.serial", problem=label, method=method) as sw:
                serial = tc.evaluate()
            serial_time = sw.elapsed

            plan = tc.compile_plan()
            par = evaluate_plan_parallel(plan, q, n_threads=n_threads)
            matches = bool(
                np.array_equal(par.potential, plan.execute(q).potential)
                and np.allclose(
                    par.potential, serial.potential, rtol=1e-9, atol=1e-12
                )
            )

            prof = profile_blocks(tc, blocks)
            sim_c = simulate(prof, model, strategy="cyclic")
            sim_l = simulate(prof, model, strategy="lpt")
            rows.append(
                Table2Row(
                    problem=label,
                    method=method,
                    serial_time=serial_time,
                    sim_speedup_cyclic=sim_c.speedup,
                    sim_speedup_lpt=sim_l.speedup,
                    sim_efficiency=sim_l.efficiency,
                    fetch_terms=float(prof.fetch_terms.sum()),
                    parallel_matches_serial=matches,
                )
            )
    return rows
