"""The end-to-end run (``--trace 0``): user-facing times and accuracy.

A run first does one discarded warm-up: a fresh evaluator and one
application; where nothing else warms its path, one discarded solve
precedes the first timed one (see ``warm_solve`` in :mod:`workloads`).
Measurement starts by applying every other pool vector once, in timed
blocks; those results are the ``rel_err`` sample and the batch gate's
reference.  One discarded ``(n, 8)`` batch follows.

The timed operations are a fresh evaluator (set-up and one-shot), a
block of warm applications, a batch and a fresh solve.  After one
fixed round of all four, a scheduler interleaves them until the
deadline: it always runs the operation furthest behind its share of
the run (:data:`SHARES`) and never starts one that would end past the
deadline, so the samples of every metric are spread over the whole run
and a slow host cannot stretch the run.  The deadline counts from the
start of the process, so reference, warm-up and all fit in it.

Every time is the median of its samples; every output is checked (see
:class:`harness.Ledger`).
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from harness import (
    Clock,
    Ledger,
    accuracy_gate,
    batch_gate,
    median,
    peak_rss_mb,
    relative_error,
)
from workloads import BATCH, BATCH_TOL, CEILINGS, E2E_UNITS

MIN_BLOCK_S = 0.3  #: shortest timed matvec sample; faster matvecs run in blocks

#: share of the timed run each operation gets.  Solves are long
#: (propeller 11 s, leapfrog step 4.5 s), so they get the most time and
#: still yield the fewest samples.
SHARES = {
    "uniform-cluster": {"fresh": 0.2, "matvec": 0.25, "batch": 0.25, "solve": 0.3},
    "propeller-gmres": {"fresh": 0.15, "matvec": 0.1, "batch": 0.1, "solve": 0.65},
}


class _Run:
    """Timed operations of one run, every output gated."""

    def __init__(self, wl, ledger: Ledger) -> None:
        self.wl = wl
        self.ledger = ledger
        self.gate = accuracy_gate(CEILINGS[wl.name])
        self.pool = wl.inp.charges.shape[1]
        self.singles: dict[int, np.ndarray] = {}
        self.samples: dict[str, list[float]] = {m: [] for m in E2E_UNITS}
        self.ev = None  #: the evaluator of warm applications: the latest fresh one
        self.block = 1  #: applications per timed matvec sample
        self._n_fresh = 0
        self._next = 0  #: next pool vector of a matvec block

    def _check(self, phi, j: int) -> str | None:
        problem = self.gate(phi, self.wl.exact[:, j])
        if problem is None and j not in self.singles:
            self.singles[j] = np.array(phi)
        return problem

    def fresh(self, keep: bool = True) -> None:
        """A fresh evaluator: set-up and one-shot.  Each one, once its
        one-shot has warmed it, becomes the evaluator of the following
        applications and batches: the speed of one evaluator depends on
        where its arrays landed (one kept for a whole run read 0.41 s
        per cluster matvec in some runs and 0.52 s in others, while the
        fresh evaluators of the same runs held at ~0.42 s), and a median
        over many evaluators does not."""
        j = self._n_fresh % self.pool
        self._n_fresh += 1

        def op():
            with Clock() as c:
                ev, phi = self.wl.fresh(self.wl.inp.charges[:, j], c)
            return ev, phi, c

        out = self.ledger.attempt(
            f"{self.wl.name}/fresh", op, lambda o: self.gate(o[1], self.wl.exact[:, j])
        )
        if out is None:
            return
        ev, _, c = out
        self.ev = ev
        if keep:
            self.samples["setup_s"].append(c.marks["setup"])
            self.samples["oneshot_s"].append(c.marks["oneshot"])

    def matvecs(self, js=None, keep: bool = True) -> float | None:
        """One timed block of warm applications (the next ``block`` pool
        vectors by default); returns seconds per application."""
        if self.ev is None:
            return None
        if js is None:
            js = [(self._next + i) % self.pool for i in range(self.block)]
            self._next += self.block
        outs = []
        q = self.wl.inp.charges
        try:
            with Clock() as c:
                for j in js:
                    outs.append(self.wl.apply(self.ev, q[:, j]))
        except Exception as exc:  # counted, the run goes on
            for _ in js:
                self.ledger.record(f"{self.wl.name}/matvec", f"raised {exc!r}")
            return None
        ok = all(
            [
                self.ledger.record(f"{self.wl.name}/matvec", self._check(phi, j))
                for phi, j in zip(outs, js)
            ]
        )
        per = c.elapsed / len(js)
        if ok and keep:
            self.samples["matvec_s"].append(per)
        return per

    def batch(self, keep: bool = True) -> None:
        if self.ev is None or any(j not in self.singles for j in range(BATCH)):
            return
        Q = self.wl.inp.charges[:, :BATCH]

        def op():
            with Clock() as c:
                out = self.wl.apply(self.ev, Q)
            return out, c

        singles = [self.singles[j] for j in range(BATCH)]
        out = self.ledger.attempt(
            f"{self.wl.name}/batch8", op, lambda o: batch_gate(o[0], singles, BATCH_TOL)
        )
        if out is not None and keep:
            self.samples["batch8_vec_s"].append(out[1].elapsed / BATCH)

    def solve(self, keep: bool = True) -> None:
        def op():
            with Clock() as c:
                res = self.wl.solve()
            return res, c

        out = self.ledger.attempt(
            f"{self.wl.name}/solve", op, lambda o: self.wl.check_solve(o[0])
        )
        if out is not None and keep:
            self.samples["solve_s"].append(out[1].elapsed)


def _schedule(run: _Run, deadline: float, spent_matvec: float) -> float:
    """One fixed round of every operation, then interleave them until
    the deadline.  ``spent_matvec`` is the time the pool pass already
    gave the matvecs.

    Returns the peak RSS after the fixed round's operations on the
    evaluators, before the first solve.  The later operations repeat the
    same ones in an order set by their timings, which moved the
    propeller's high-water mark between 480 and 517 MB through allocator
    fragmentation alone; and the particles' leapfrog step, an un-planned
    treecode with gradients, peaks at ~470 MB against the cluster plan's
    ~260 MB, which would hide the plan's memory."""
    shares = SHARES[run.wl.name]
    ops = {"fresh": run.fresh, "matvec": run.matvecs, "batch": run.batch, "solve": run.solve}
    spent = dict.fromkeys(shares, 0.0)
    spent["matvec"] = spent_matvec
    last = dict.fromkeys(shares, 0.0)  #: duration of the latest sample

    def timed(op: str) -> None:
        t0 = time.perf_counter()
        ops[op]()
        last[op] = time.perf_counter() - t0
        spent[op] += last[op]

    for op in shares:
        if op != "solve":
            timed(op)
    peak = peak_rss_mb()
    if run.wl.warm_solve:
        run.solve(keep=False)  # discarded warm-up
    timed("solve")
    while True:
        left = deadline - time.perf_counter()
        ready = [op for op in shares if last[op] <= left]
        if not ready:
            return peak
        timed(min(ready, key=lambda o: spent[o] / shares[o]))


def run_end_to_end(wl, deadline: float, ledger: Ledger) -> tuple[dict, dict]:
    """Warm-up, then timed operations until ``deadline`` (a
    ``time.perf_counter()`` value); returns metric -> value and time
    metric -> sample count."""
    run = _Run(wl, ledger)
    # discarded warm-up: a fresh evaluator and one application (and a
    # solve, see _schedule)
    run.fresh(keep=False)
    per = run.matvecs([0], keep=False)
    start = time.perf_counter()
    if per is not None:
        # the rest of the pool once, in timed blocks: the rel_err sample
        # and the batch gate's reference; then one discarded batch
        run.block = max(1, math.ceil(MIN_BLOCK_S / per))
        for s in range(1, run.pool, run.block):
            js = list(range(s, min(s + run.block, run.pool)))
            run.matvecs(js, keep=len(js) == run.block)
        run.batch(keep=False)
    peak = _schedule(run, deadline, time.perf_counter() - start)

    for m, v in run.samples.items():
        if v:
            print(
                f"{wl.name} {m}: n={len(v)} median={median(v):.4g} "
                f"min={min(v):.4g} max={max(v):.4g}",
                file=sys.stderr,
            )
    out = {m: median(v) for m, v in run.samples.items() if v}
    counts = {m: len(v) for m, v in run.samples.items() if v}
    if len(run.singles) == run.pool:
        approx = np.stack([run.singles[j] for j in range(run.pool)], axis=1)
        out["rel_err"] = relative_error(approx, wl.exact)
    out["peak_rss_mb"] = peak
    print(f"{wl.name} peak_rss_mb: {peak:.1f}, at the end {peak_rss_mb():.1f}", file=sys.stderr)
    return out, counts
