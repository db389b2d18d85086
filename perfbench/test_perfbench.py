"""Tests of the benchmark itself, on tiny problem sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import endtoend  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = workloads.Sizes(n_particles=400, blade_res=4, hub_res=4, n_check=50)
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workload_names_agree():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == NAMES


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(workload, trace, tmp_path):
    result, counts = run.run(workload, 0, 0.0, trace, sizes=SMALL, out_dir=tmp_path)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    off_path = workloads.OFF_PATH[workload] if trace else set()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if m["name"] in off_path:
            assert got["value"] == 0, m["name"]
        elif not trace or m["unit"] == "s":  # every time on the path is measured
            assert got["value"] > 0, m["name"]
        if not trace and m["unit"] in ("s", "s/vector"):
            assert counts[m["name"]] >= 1, m["name"]
    if trace:
        assert (tmp_path / f"{workload}-seed0.trace.json").is_file()
        report = json.loads((tmp_path / f"{workload}-seed0.report.json").read_text())
        assert report["per_layer"]["trace.overhead"] > 0


def test_wrong_result_is_a_failed_operation(monkeypatch, capsys):
    apply = workloads.ClusterWorkload.apply
    monkeypatch.setattr(
        workloads.ClusterWorkload, "apply", staticmethod(lambda ev, q: 1.01 * apply(ev, q))
    )
    monkeypatch.setattr(workloads, "Sizes", lambda: SMALL)
    code = run.main(["--workload", "uniform-cluster", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_gates_name_each_failure():
    exact = np.linspace(1.0, 2.0, 50)
    gate = harness.accuracy_gate(1e-3)
    assert gate(exact * (1 + 1e-5), exact) is None
    assert "ceiling" in gate(exact * 1.01, exact)
    bad = exact.copy()
    bad[3] = np.nan
    assert "non-finite" in gate(bad, exact)
    batch = np.stack([exact, 2 * exact], axis=1)
    assert harness.batch_gate(batch, [exact, 2 * exact], 1e-11) is None
    assert "column 1" in harness.batch_gate(batch, [exact, 2 * exact + 1e-9], 1e-11)

    ledger = harness.Ledger()
    assert ledger.attempt("ok", lambda: 1, lambda out: None) == 1
    assert ledger.attempt("raises", lambda: 1 / 0, lambda out: None) is None
    assert ledger.attempt("gated", lambda: 1, lambda out: "wrong") is None
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_solve_gates_reject_wrong_answers():
    small = {name: workloads.make_inputs(name, 0, SMALL) for name in NAMES}
    prop = workloads.make_workload("propeller-gmres", small["propeller-gmres"])
    res = prop.solve()
    assert prop.check_solve(res) is None
    res.converged = False
    assert "did not converge" in prop.check_solve(res)

    particles = workloads.make_workload("uniform-cluster", small["uniform-cluster"])
    state = particles.solve()
    assert particles.check_solve(state) is None
    state.velocities += 0.1 * (state.velocities - particles.inp.velocities)
    assert "kick error" in particles.check_solve(state)


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_the_inputs_and_nothing_else(workload):
    a = workloads.make_inputs(workload, 1, SMALL)
    b = workloads.make_inputs(workload, 2, SMALL)
    again = workloads.make_inputs(workload, 1, SMALL)
    for field in ("charges", "points", "velocities", "rhs", "check_idx"):
        x, y, z = getattr(a, field), getattr(b, field), getattr(again, field)
        if x is None:
            assert y is None
            continue
        assert x.shape == y.shape
        np.testing.assert_array_equal(x, z)
    assert not np.array_equal(a.charges, b.charges)
    if a.points is not None:  # one point cloud, seeded velocities
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.velocities, b.velocities)
    else:  # the surface and its boundary data are fixed
        np.testing.assert_array_equal(a.mesh.vertices, b.mesh.vertices)
        np.testing.assert_array_equal(a.rhs, b.rhs)


def test_scheduler_runs_a_fixed_round_then_stops_before_the_deadline():
    calls = []

    class FakeRun:
        wl = type("wl", (), {"name": "uniform-cluster", "warm_solve": False})

        def _op(name, seconds):
            def op(self):
                calls.append(name)
                time.sleep(seconds)

            return op

        fresh = _op("fresh", 0.03)
        matvecs = _op("matvec", 0.01)
        batch = _op("batch", 0.01)
        solve = _op("solve", 0.05)

    start = time.perf_counter()
    endtoend._schedule(FakeRun(), start + 0.6, 0.0)
    elapsed = time.perf_counter() - start
    assert calls[:4] == ["fresh", "matvec", "batch", "solve"]
    assert len(calls) > 8  # the scheduler filled the remaining time
    assert 0.5 < elapsed < 0.6 + 0.05


def test_self_time_subtracts_children():
    rec = Recorder("r")
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10_000))
        with rec.span("inner"):
            sum(range(10_000))
    outer = rec.durations("outer")[0]
    inner = sum(rec.durations("inner"))
    assert rec.self_times()["outer"] == pytest.approx(outer - inner)
    events = rec.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "inner"]
    assert all(e["ph"] == "X" and e["args"]["run_id"] == "r" for e in events)
    assert events[1]["args"]["parent"] == "outer"


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    args = ["--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        SPEC["command"] + args, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
