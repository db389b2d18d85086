"""Parallel treecode: w-aggregation, Hilbert ordering, and speedups.

Reproduces the paper's parallel methodology: the compiled plan's work
units evaluated on a supervised thread fleet (verified bitwise equal to
the serial plan), and particles sorted into Peano-Hilbert order,
aggregated into w-particle blocks, and scaled on the Origin-2000-style
machine model driven by the measured per-block work profile.

Run:  python examples/parallel_scaling.py
"""

import numpy as np

from repro import AdaptiveChargeDegree, FixedDegree, Treecode
from repro.data.distributions import gaussian_blob, uniform_cube, unit_charges
from repro.parallel import (
    MachineModel,
    evaluate_plan_parallel,
    make_blocks,
    profile_blocks,
    simulate,
)


def main() -> None:
    n = 8000
    w = 64
    for label, pts in (
        ("uniform", uniform_cube(n, seed=1)),
        ("non-uniform (gaussian)", gaussian_blob(n, seed=1)),
    ):
        q = unit_charges(n, seed=2, signed=True)
        print(f"=== {label}, n = {n}, w = {w} ===")
        for name, policy in (
            ("original", FixedDegree(4)),
            ("improved", AdaptiveChargeDegree(p0=4, alpha=0.4)),
        ):
            tc = Treecode(pts, q, degree_policy=policy, alpha=0.4)
            plan = tc.compile_plan()
            par = evaluate_plan_parallel(plan, q, n_threads=2)
            ok = np.array_equal(par.potential, plan.execute(q).potential)
            prof = profile_blocks(tc, make_blocks(pts, w))
            print(f"  {name}: threaded result matches serial: {ok}")
            print(f"    blocks: {prof.n_blocks}, "
                  f"fetch volume: {prof.fetch_terms.sum()/1e6:.2f}M terms")
            print(f"    {'P':>4} {'speedup':>8} {'efficiency':>11}")
            for P in (2, 4, 8, 16, 32):
                sim = simulate(prof, MachineModel(n_procs=P))
                print(f"    {P:>4} {sim.speedup:>8.2f} {sim.efficiency:>10.1%}")
        print()


if __name__ == "__main__":
    main()
