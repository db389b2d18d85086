"""Benchmark — Table 3: BEM single-iteration errors and times."""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.bem.geometries import propeller
from repro.bem.operator import SingleLayerOperator
from repro.core.degree import AdaptiveChargeDegree
from repro.experiments import Table3Row, run_table3

from conftest import save_result


@pytest.fixture(scope="module")
def table3(scale):
    res = (14, 7) if scale == "full" else (8, 4)
    rows, gmres_info = run_table3(p0=4, alpha=0.5, propeller_res=res[0], gripper_res=res[1])
    lines = [
        format_table(
            Table3Row.HEADERS,
            [r.as_list() for r in rows],
            title="Table 3 — BEM single-iteration errors vs degree-9 reference",
        )
    ]
    for name, info in gmres_info.items():
        lines.append(
            f"  {name}: {info['elements']} elements, {info['nodes']} nodes; "
            f"GMRES(10) {'converged' if info['converged'] else 'FAILED'} "
            f"in {info['iterations']} iterations"
        )
    save_result("table3", "\n".join(lines))
    return rows, gmres_info


def test_improved_beats_base_degree(table3):
    """At the same anchor degree the improved method's matvec error is
    significantly below the original's (the paper's Table-3 message)."""
    rows, _ = table3
    for geometry in ("propeller", "gripper"):
        geo = [r for r in rows if r.geometry == geometry]
        base = next(r for r in geo if r.algorithm == "original" and r.degree == "4")
        improved = next(r for r in geo if r.algorithm == "improved")
        assert improved.error < base.error
        # ... at a cost well below simply raising the global degree to
        # reference quality
        p7 = next(r for r in geo if r.degree == "7")
        assert improved.terms < p7.terms * 1.2


def test_error_decreases_with_degree(table3):
    rows, _ = table3
    for geometry in ("propeller", "gripper"):
        errs = [
            r.error
            for r in rows
            if r.geometry == geometry and r.algorithm == "original"
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_gmres_converges(table3):
    _, gmres_info = table3
    for name, info in gmres_info.items():
        assert info["converged"], name


#: GMRES(10) iterations at the smoke scale.  The count follows every
#: rounding of the treecode matvec, so a change to the order in which
#: pairs are emitted or summed shows here even when GMRES converges.
SMOKE_ITERATIONS = {"propeller": 67, "gripper": 70}


def test_gmres_iterations_pinned(table3, scale):
    if scale != "small":
        pytest.skip("iteration counts are pinned at the smoke scale")
    _, gmres_info = table3
    got = {name: info["iterations"] for name, info in gmres_info.items()}
    assert got == SMOKE_ITERATIONS


def test_bench_bem_matvec(benchmark, table3):
    """Time one treecode matvec on the propeller (the GMRES inner op)."""
    mesh = propeller(blade_res=8, hub_res=8)
    op = SingleLayerOperator(
        mesh, n_gauss=6, degree_policy=AdaptiveChargeDegree(p0=4, alpha=0.5), alpha=0.5
    )
    x = np.ones(mesh.n_vertices)
    out = benchmark(lambda: op.matvec(x))
    assert np.all(np.isfinite(out))
