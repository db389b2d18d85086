"""The traced run (``--trace 1``): per-layer metrics from outside.

Each round repeats a workload's pipeline one public call at a time,
every call inside a span (:mod:`spans`) opened here; the library itself
is not instrumented.  A plan application runs as ``sort_charges``,
``form_coefficients`` (P2M), ``execute_unit`` over the far units and
over the near blocks, and ``finalize``.  Each traced application of the
workload's own evaluator (span ``matvec``) is followed by an untraced
one, so ``trace.overhead`` and ``trace.coverage`` come from the same
process.

Each workload measures the layers on its own path; the others read 0
(``OFF_PATH`` in :mod:`workloads`):

* uniform-cluster — the octree, upward pass, dual traversal and cluster
  plan, and ``UniformFMM`` on the same points;
* propeller — the operator's octree over the Gauss points, upward pass
  and target-major plan (rebuilt from the public calls the operator
  makes, since it does not expose its plan), and the GMRES solve.

The ``op.*`` layer is the workload's own public operator: constructor,
first application, compiling application, warm application.  The run
ends by the same deadline as the end-to-end run.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from harness import Clock, Ledger, accuracy_gate, gemm_gflops, median
from repro.core import FixedDegree, Treecode
from repro.direct import direct_potential
from repro.fmm import UniformFMM
from repro.perf import ClusterPlan, scatter_add
from repro.tree import build_octree, dual_traverse
from workloads import CEILINGS, LAYER_UNITS, POOL, UNPLANNED_CEILING

TRACE_MATVEC_S = 1.0  #: traced and untraced matvecs per round, each
MAX_ROUNDS = 12
STAGES = ("upward", "m2l", "l2l", "near")  #: ``UniformFMM.stats.times``


def _decomposed_execute(rec, plan, q):
    """``plan.execute(q)`` through its public per-layer calls."""
    n_near = plan.n_near_precomputed + plan.n_near_spilled
    n_far = plan.n_units - n_near
    with rec.span("plan.sort"):
        qs = plan.sort_charges(q)
    with rec.span("plan.p2m"):
        ctx = plan.form_coefficients(qs)
    phi = np.zeros(plan.n_targets)
    with rec.span("plan.far"):
        for i in range(n_far):
            tids, vals = plan.execute_unit(ctx, qs, i)
            scatter_add(phi, tids, vals)
    with rec.span("plan.near"):
        for i in range(n_far, plan.n_units):
            tids, vals = plan.execute_unit(ctx, qs, i)
            scatter_add(phi, tids, vals)
    with rec.span("plan.finalize"):
        phi, _, _ = plan.finalize(phi)
    return phi


class _TracedRun:
    """Layer-by-layer rounds of one workload under a span recorder."""

    def __init__(self, wl, rec, ledger: Ledger) -> None:
        self.wl = wl
        self.rec = rec
        self.ledger = ledger
        self.gate = accuracy_gate(CEILINGS[wl.name])
        self.untraced: list[float] = []
        self.facts: dict[str, list[float]] = {}
        self.reps = 1  #: own traced applications per round

    def fact(self, name: str, value) -> None:
        self.facts.setdefault(name, []).append(float(value))

    def check(self, op: str, phi, exact) -> None:
        self.ledger.record(f"{self.wl.name}/{op}", self.gate(phi, exact))

    def vectors(self, round_no: int) -> list[int]:
        pool = POOL[self.wl.name]
        return [(round_no * self.reps + i) % pool for i in range(self.reps)]

    def untraced_matvec(self, ev, j: int) -> None:
        with Clock() as c:
            phi = self.wl.apply(ev, self.wl.inp.charges[:, j])
        self.untraced.append(c.elapsed)
        self.check("matvec", phi, self.wl.exact[:, j])

    def solve(self) -> None:
        """Fresh solve with the operator set-up and every application in
        a span; GMRES's own time is the rest."""
        rec = self.rec
        since = rec.mark()
        with rec.span("gmres.solve") as sp:
            res = self.wl.solve(rec)
        self.ledger.record(f"{self.wl.name}/solve", self.wl.check_solve(res))
        inner = sum(rec.durations("gmres.matvec", since))
        inner += sum(rec.durations("solve.operator", since))
        self.fact("gmres.self_s", sp.duration - inner)
        self.fact("gmres.iters", res.n_iterations)
        self.fact("gmres.restarts", res.n_restarts)


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------
def _tree_layers(t: _TracedRun, points, q, leaf: int, dual: bool = True, **tc_kwargs):
    """Octree, upward pass and (``dual``) dual traversal; returns the
    treecode."""
    rec = t.rec
    with rec.span("tree.build") as sp:
        tree = build_octree(points, q, leaf_size=leaf)
    t.fact("tree.build_s", sp.duration)
    t.fact("tree.nodes", tree.n_nodes)
    t.fact("tree.height", tree.height)
    with rec.span("treecode.upward") as sp:
        tc = Treecode(points, q, leaf_size=leaf, tree=tree, **tc_kwargs)
    t.fact("treecode.upward_s", sp.duration)
    if not dual:
        return tc
    with rec.span("dualtree.traverse") as sp:
        pairs = dual_traverse(tree, tc.alpha)
    t.fact("dualtree.traverse_s", sp.duration)
    t.fact("dualtree.far_pairs", pairs.n_far)
    t.fact("dualtree.near_pairs", pairs.n_near)
    return tc


def _plan_layers(t: _TracedRun, plan, js, ev, to_charges=None) -> None:
    """Plan facts and decomposed applications of pool vectors ``js``,
    each a ``matvec`` span followed by an untraced application of the
    workload's evaluator ``ev``."""
    wl, rec = t.wl, t.rec
    t.fact("plan.memory_mb", plan.memory_bytes / 1e6)
    t.fact("plan.near_blocks", plan.n_near_precomputed + plan.n_near_spilled)
    if isinstance(plan, ClusterPlan):  # the target-major plan has no M2L
        t.fact("plan.box_pairs", plan.n_box_pairs)
        t.fact("plan.m2l_flops_pred", np.sum((plan.pair_degrees + 1.0) ** 4))
    charges = to_charges or (lambda x: x)
    for j in js:
        with rec.span("matvec"):
            with rec.span("plan.charges"):
                q = charges(wl.inp.charges[:, j])
            phi = _decomposed_execute(rec, plan, q)
        t.check("plan.matvec", phi, wl.exact[:, j])
        t.untraced_matvec(ev, j)
    t.fact("plan.terms", plan.execute(q).stats.n_terms)


def _fmm_layers(t: _TracedRun, points, q, exact) -> None:
    """``UniformFMM`` defaults on ``points``: construction, un-planned and
    compiling evaluations of charges ``q``, then one warm application
    with the public per-stage times.  ``exact`` is the reference."""
    rec = t.rec
    with rec.span("fmm.construct"):
        f = UniformFMM(points, q, plan_cache="")
    with rec.span("fmm.first_eval") as sp:
        phi = f.evaluate()
    t.check("fmm.first_eval", phi, exact)
    t.fact("fmm.first_eval_s", sp.duration)
    with rec.span("fmm.compile_eval") as sp:
        f.evaluate()
    t.fact("fmm.compile_eval_s", sp.duration)
    t.fact("fmm.plan_mb", f.plan_memory_bytes / 1e6)
    m2l0, pp0 = f.stats.n_m2l, f.stats.n_pp_pairs
    with rec.span("fmm.matvec"):
        with rec.span("fmm.set_charges"):
            f.set_charges(q)
        with rec.span("fmm.evaluate"):
            phi = f.evaluate()
    t.check("fmm.matvec", phi, exact)
    for stage in STAGES:
        t.fact(f"fmm.{stage}_s", f.stats.times[stage])
    t.fact("fmm.m2l_count", f.stats.n_m2l - m2l0)
    t.fact("fmm.pp_pairs", f.stats.n_pp_pairs - pp0)


def _compile(t: _TracedRun, tc, **kwargs):
    with t.rec.span("plan.compile") as sp:
        plan = tc.compile_plan(cache_dir="", **kwargs)
    t.fact("plan.compile_s", sp.duration)
    return plan


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def _round_cluster(t: _TracedRun, round_no: int) -> None:
    wl, rec = t.wl, t.rec
    pts, charges = wl.inp.points, wl.inp.charges
    js = t.vectors(round_no)
    q0 = charges[:, js[0]]
    tc = _tree_layers(t, pts, q0, leaf=16)
    plan = _compile(t, tc, mode="cluster")
    _plan_layers(t, plan, js, ev=plan)
    _fmm_layers(t, pts, q0, wl.exact[:, js[0]])
    # the public operator: the un-planned treecode, then the cluster plan
    with rec.span("op.build") as sp:
        tc = Treecode(pts, q0)
    t.fact("op.build_s", sp.duration)
    with rec.span("op.first_apply") as sp:
        phi = tc.evaluate().potential
    t.fact("op.first_apply_s", sp.duration)
    problem = accuracy_gate(UNPLANNED_CEILING)(phi, wl.exact[:, js[0]])
    t.ledger.record(f"{wl.name}/op.first_apply", problem)
    with rec.span("op.compile_apply") as sp:
        phi = tc.compile_plan(mode="cluster", cache_dir="").execute(q0).potential
    t.fact("op.compile_apply_s", sp.duration)
    t.check("op.compile_apply", phi, wl.exact[:, js[0]])


def _round_propeller(t: _TracedRun, round_no: int) -> None:
    wl, rec = t.wl, t.rec
    mesh, charges = wl.inp.mesh, wl.inp.charges
    js = t.vectors(round_no)
    s0 = charges[:, js[0]]
    with rec.span("op.build") as sp:
        op = wl.new_operator()
    t.fact("op.build_s", sp.duration)
    with rec.span("op.first_apply") as sp:
        phi = op.matvec(s0)
    t.fact("op.first_apply_s", sp.duration)
    t.check("op.first_apply", phi, wl.exact[:, js[0]])
    with rec.span("op.compile_apply") as sp:
        op.matvec(s0)
    t.fact("op.compile_apply_s", sp.duration)
    # the operator's plan: octree over the Gauss points with the
    # quadrature weights, upward pass, vertex traversal, plan
    tc = _tree_layers(
        t, op.points, op.weights, leaf=32, dual=False, degree_policy=FixedDegree(4)
    )
    with rec.span("treecode.traverse"):
        lists = tc.traverse(mesh.vertices, self_targets=False)
    plan = _compile(t, tc, targets=mesh.vertices, lists=lists)
    _plan_layers(t, plan, js, ev=op, to_charges=op.charges_for)


#: workload -> (round, whether a round ends with a traced solve)
_ROUNDS = {
    "uniform-cluster": (_round_cluster, False),
    "propeller-gmres": (_round_propeller, True),
}


def run_traced(wl, rec, deadline: float, ledger: Ledger) -> dict:
    """Per-layer metrics: medians over rounds of layer-by-layer calls,
    each inside a span, with untraced applications interleaved.  Rounds
    run while the next is expected to end by ``deadline``."""
    t = _TracedRun(wl, rec, ledger)
    do_round, with_solve = _ROUNDS[wl.name]
    # warm-up round without the solve (its operator and applications are
    # warmed by the round), discarded; sizes the own applications
    with rec.span("warmup"):
        do_round(t, 0)
    t.reps = max(1, math.ceil(TRACE_MATVEC_S / median(t.untraced)))

    # direct summation of one vector at every target: the brute-force
    # baseline the evaluator has to beat; and the host's GEMM rate
    if wl.name == "propeller-gmres":
        exact = wl.new_operator().exact_potential
    else:
        exact = lambda q: direct_potential(wl.inp.points, q)  # noqa: E731
    direct = []
    for j in range(3):
        with Clock() as c:
            ref = exact(wl.inp.charges[:, j])
        direct.append(c.elapsed)
        t.check("direct", ref, wl.exact[:, j])
    gemm = gemm_gflops()

    t.facts.clear()
    t.untraced.clear()
    since = rec.mark()
    rounds, last = 0, 0.0
    while rounds < 1 or (rounds < MAX_ROUNDS and time.perf_counter() + last <= deadline):
        t0 = time.perf_counter()
        with rec.span("round"):
            do_round(t, rounds + 1)
            if with_solve:
                t.solve()
        last = time.perf_counter() - t0
        rounds += 1

    out = {m: 0.0 for m in LAYER_UNITS}
    out.update({k: median(v) for k, v in t.facts.items()})
    for stage in ("p2m", "far", "near"):
        out[f"plan.{stage}_s"] = median(rec.durations(f"plan.{stage}", since))
    matvec = median(t.untraced)
    out["op.apply_s"] = matvec
    out["trace.overhead"] = median(rec.durations("matvec", since)) / matvec
    parts = [out[f"plan.{stage}_s"] for stage in ("p2m", "far", "near")]
    out["trace.coverage"] = sum(parts) / matvec
    if out["plan.m2l_flops_pred"] > 0:
        out["plan.far_gflops"] = out["plan.m2l_flops_pred"] / out["plan.far_s"] / 1e9
    out["direct.matvec_s"] = median(direct)
    out["direct.speedup"] = out["direct.matvec_s"] / matvec
    out["host.gemm_gflops"] = gemm
    print(f"{wl.name} traced: {rounds} rounds", file=sys.stderr)
    return out
