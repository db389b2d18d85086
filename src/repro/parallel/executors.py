"""Parallel execution of compiled plans on the supervised worker fleet.

A compiled plan (:class:`~repro.perf.plan.CompiledPlan` or
:class:`~repro.perf.cluster.ClusterPlan`) splits the evaluation into
independent, read-only work units — the concurrency the paper's
threaded formulation exploits.  :func:`evaluate_plan_parallel` forms
the coefficients serially, spreads the units over a supervised fleet of
worker threads (:mod:`repro.robust.supervisor`), and merges the
``(targets, values)`` contributions on the coordinating thread in unit
order, so the result is bitwise equal to ``plan.execute(charges)`` for
every worker count.

Note on this host: heavy NumPy kernels release the GIL, so threads give
genuine concurrency on multi-core machines; on a single-core host the
executor is still exercised for correctness while
:mod:`repro.parallel.machine` provides the scaling numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.treecode import TreecodeStats, record_eval_metrics
from ..obs.tracing import is_enabled, stopwatch
from ..perf.scatter import scatter_add
from ..robust.retry import RetryPolicy
from ..robust.supervisor import (
    Supervisor,
    SupervisorConfig,
    default_config,
    run_plan_units,
)

__all__ = [
    "ParallelResult",
    "evaluate_plan_parallel",
    "resolve_workers",
    "ENV_WORKERS",
]

#: Environment variable read by :func:`resolve_workers` — the single
#: worker-count knob of the thread fleet.
ENV_WORKERS = "REPRO_NUM_WORKERS"


def resolve_workers(requested: int | None = None, default: int = 4) -> int:
    """Resolve a worker count: explicit argument, else the
    ``REPRO_NUM_WORKERS`` environment variable, else ``default``.

    Every parallel entry point (the executor, Table 2, the CLI
    ``--workers`` flag) funnels through this so one setting controls
    them all.
    """
    if requested is not None:
        n = int(requested)
    else:
        env = os.environ.get(ENV_WORKERS, "").strip()
        n = int(env) if env else int(default)
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    return n


@dataclass
class ParallelResult:
    """Potential plus timing of a parallel plan execution."""

    potential: np.ndarray
    wall_time: float
    n_threads: int
    n_blocks: int  #: work units executed (``plan.n_units``)
    stats: TreecodeStats
    n_retries: int = 0  #: unit attempts retried after a failure
    n_fallbacks: int = 0  #: units quarantined or completed serially
    n_quarantined: int = 0  #: poison units completed by the supervisor
    n_reaped: int = 0  #: hung workers replaced
    n_degradations: int = 0  #: thread -> serial downgrades


def evaluate_plan_parallel(
    plan,
    charges: np.ndarray,
    n_threads: int | None = None,
    retry: RetryPolicy | None = None,
    supervise: SupervisorConfig | None = None,
) -> ParallelResult:
    """Execute a compiled plan with its work units spread over a
    supervised worker fleet.

    Coefficient formation is serial (it is one segmented GEMV); the
    independent, read-only evaluation units then run concurrently and
    their ``(targets, values)`` contributions are merged on the
    coordinating thread in deterministic unit order, so the result is
    bitwise-reproducible across worker counts and equals
    ``plan.execute(charges).potential`` exactly.  Potential only —
    gradient/bound plans still execute, contributing just their
    potential parts.  ``charges`` may be an ``(n, k)`` batch of stacked
    charge vectors (see :meth:`~repro.perf.plan.CompiledPlan.execute`);
    the potential is then ``(n, k)``, every kernel runs once over the
    whole batch, and ``k=1`` remains bitwise-identical to the plain
    vector path.  A plan compiled with a ``source_map`` takes its source
    vectors (the BEM operator's densities) the same way: the map is
    folded into the operators every unit reads, so units see nothing
    else.

    The units run on a fleet of daemon threads — NumPy kernels release
    the GIL, so threads overlap on multi-core hosts with zero
    serialization cost.  The worker count comes from ``n_threads`` via
    :func:`resolve_workers` (``REPRO_NUM_WORKERS`` env var, else 4).

    Every run is supervised (:func:`~repro.robust.supervisor.run_fleet`):
    each unit runs under the ``parallel.block`` injection site with the
    ``retry`` :class:`~repro.robust.RetryPolicy`, hung workers are
    replaced at the hang deadline, poison units are quarantined and
    completed on the coordinator with fault injection suppressed, and a
    tripped breaker hands the remaining units down the ``thread ->
    serial`` ladder.  Recovery reruns identical arithmetic,
    so it does not perturb the result — unless a quarantined unit had
    to fall all the way to exact direct summation.  ``supervise`` tunes
    thresholds and timings; ``None`` reads them from the environment
    (:func:`~repro.robust.supervisor.default_config`).
    """
    if supervise is not None and not isinstance(supervise, SupervisorConfig):
        raise TypeError(
            f"supervise must be a SupervisorConfig or None, "
            f"got {type(supervise).__name__}"
        )
    charges = np.asarray(charges, dtype=np.float64)
    if charges.ndim == 2 and charges.shape[1] == 1:
        # single-column batches run the 1-D path (bitwise-identical to a
        # plain vector) and regain the column axis on the way out
        res = evaluate_plan_parallel(plan, charges[:, 0], n_threads, retry, supervise)
        res.potential = res.potential[:, None]
        return res
    n_threads = resolve_workers(n_threads)
    policy = RetryPolicy() if retry is None else retry
    sup = Supervisor(supervise if supervise is not None else default_config())
    q_sorted = plan.sort_charges(charges)
    recovery = {"retries": 0, "fallbacks": 0}

    sw = stopwatch("parallel.plan_execute", threads=n_threads, units=plan.n_units)
    with sw:
        ctx = plan.form_coefficients(q_sorted)
        results = run_plan_units(plan, ctx, q_sorted, n_threads, policy, sup, recovery)
        phi = np.zeros((plan.n_targets,) + q_sorted.shape[1:], dtype=np.float64)
        for i in range(plan.n_units):  # deterministic merge order
            scatter_add(phi, *results[i])
        phi, _, _ = plan.finalize(phi)
    wall = sw.elapsed

    stats = plan._clone_stats()
    stats.eval_time = wall
    if is_enabled():
        record_eval_metrics(stats)
    return ParallelResult(
        potential=phi,
        wall_time=wall,
        n_threads=n_threads,
        n_blocks=plan.n_units,
        stats=stats,
        n_retries=recovery["retries"],
        n_fallbacks=recovery["fallbacks"],
        n_quarantined=sup.n_quarantines,
        n_reaped=sup.n_reaps,
        n_degradations=sup.n_degradations,
    )
