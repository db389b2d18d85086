"""Tests for the observability layer: tracing, metrics, recorder, and
the instrumentation wired through the compute layers."""

import json
import threading

import numpy as np
import pytest

from repro.bem.gmres import gmres
from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.obs import REGISTRY, RunRecorder, metrics, tracing
from repro.obs.tracing import span, stopwatch
from repro.parallel import evaluate_plan_parallel


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    yield
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_disabled_span_is_shared_singleton():
    """The disabled fast path allocates nothing: every span() call
    returns the same no-op object and records no events."""
    a = span("one")
    b = span("two", key="value")
    assert a is b
    with a:
        pass
    assert len(tracing.get_tracer()) == 0


def test_span_nesting_and_export_roundtrip(tmp_path):
    tracing.enable()
    with span("outer", level=1):
        with span("inner", level=2):
            pass
    tracer = tracing.get_tracer()
    events = {e["name"]: e for e in tracer.events()}
    assert set(events) == {"outer", "inner"}
    # nesting is interval containment within the same thread
    assert events["outer"]["tid"] == events["inner"]["tid"]
    assert events["outer"]["start"] <= events["inner"]["start"]
    assert events["inner"]["end"] <= events["outer"]["end"]
    assert events["inner"]["args"] == {"level": 2}

    path = tmp_path / "trace.json"
    tracer.export(str(path))
    loaded = json.loads(path.read_text())
    assert "traceEvents" in loaded
    by_name = {e["name"]: e for e in loaded["traceEvents"]}
    assert set(by_name) == {"outer", "inner"}
    for ev in loaded["traceEvents"]:
        assert ev["ph"] == "X"
        assert ev["dur"] >= 0
        assert {"ts", "pid", "tid", "cat", "args"} <= set(ev)
    # microsecond timestamps preserve the containment
    assert by_name["outer"]["ts"] <= by_name["inner"]["ts"]


def test_stopwatch_times_even_when_disabled():
    with stopwatch("timed") as sw:
        sum(range(1000))
    assert sw.elapsed > 0.0
    assert len(tracing.get_tracer()) == 0  # no event while disabled
    tracing.enable()
    with stopwatch("timed") as sw2:
        pass
    assert sw2.elapsed >= 0.0
    assert len(tracing.get_tracer()) == 1


def test_tracer_thread_safety():
    tracing.enable()
    barrier = threading.Barrier(4)  # keep all threads alive at once

    def worker(i):
        barrier.wait()
        for _ in range(50):
            with span("w", idx=i):
                pass

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = tracing.get_tracer().events()
    assert len(events) == 200
    assert len({e["tid"] for e in events}) == 4


def test_tracer_summary_aggregates():
    tracing.enable()
    for _ in range(3):
        with span("phase.a"):
            pass
    with span("phase.b"):
        pass
    summary = {row["name"]: row for row in tracing.get_tracer().summary()}
    assert summary["phase.a"]["count"] == 3
    assert summary["phase.b"]["count"] == 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_counter_gauge_basics():
    c = REGISTRY.counter("hits", "help text")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = REGISTRY.gauge("depth")
    g.set(3.5)
    assert g.value == 3.5
    # get-or-create returns the same instrument
    assert REGISTRY.counter("hits") is c
    # a name cannot change kind
    with pytest.raises(TypeError):
        REGISTRY.gauge("hits")


def test_labeled_counter_text_exposition():
    by_deg = REGISTRY.counter("by_degree", "per-degree", labelnames=("degree",))
    by_deg.labels(degree=4).inc(10)
    by_deg.labels(degree=7).inc(2)
    with pytest.raises(ValueError):
        by_deg.inc()  # labeled family needs .labels()
    text = REGISTRY.render_text()
    assert '# TYPE by_degree counter' in text
    assert 'by_degree{degree="4"} 10' in text
    assert 'by_degree{degree="7"} 2' in text


def test_histogram_log_bucketing():
    h = REGISTRY.histogram("sizes", base=2.0)
    h.observe(1.0)  # -> bucket 2^0
    h.observe(3.0)  # -> bucket 2^2
    h.observe(4.0)  # -> bucket 2^2 (boundary is inclusive)
    h.observe(1000.0)  # -> bucket 2^10
    h.observe(0.0)  # -> the <=0 bucket
    bounds = dict(h.bucket_bounds())
    assert bounds[0.0] == 1
    assert bounds[1.0] == 1
    assert bounds[4.0] == 2
    assert bounds[1024.0] == 1
    assert h.count == 5
    assert h.sum == pytest.approx(1008.0)
    # values spanning many decades stay in sparse buckets
    h2 = REGISTRY.histogram("residuals", base=10.0)
    for r in [1.0, 1e-3, 1e-6, 1e-12]:
        h2.observe(r)
    assert h2.count == 4
    assert len(h2.bucket_bounds()) == 4


def test_histogram_text_is_cumulative():
    h = REGISTRY.histogram("blk", base=2.0)
    for v in [1, 2, 8]:
        h.observe(v)
    text = REGISTRY.render_text()
    assert 'blk_bucket{le="1"} 1' in text
    assert 'blk_bucket{le="2"} 2' in text
    assert 'blk_bucket{le="8"} 3' in text
    assert 'blk_bucket{le="+Inf"} 3' in text
    assert "blk_count 3" in text


def test_registry_json_roundtrip(tmp_path):
    REGISTRY.counter("c").inc(7)
    REGISTRY.gauge("g").set(2.5)
    REGISTRY.histogram("h").observe(5.0)
    path = tmp_path / "metrics.json"
    REGISTRY.export_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["counters"]["c"] == 7
    assert loaded["gauges"]["g"] == 2.5
    assert loaded["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# instrumented compute layers
# ---------------------------------------------------------------------------
def test_treecode_evaluate_spans_and_counters_match_stats(rng):
    pts = rng.random((500, 3))
    q = rng.uniform(-1, 1, 500)
    rec = RunRecorder("unit")
    with rec:
        tc = Treecode(pts, q, degree_policy=FixedDegree(4), alpha=0.5)
        res = tc.evaluate(accumulate_bounds=True)
        rec.record_treecode("unit", res)
    names = {e["name"] for e in rec.report()["spans"]}
    assert {
        "treecode.build",
        "treecode.upward",
        "treecode.traverse",
        "treecode.eval",
        "plan.compile",
        "plan.far_field",
        "plan.near_field",
    } <= names
    counters = rec.report()["metrics"]["counters"]
    s = res.stats
    assert counters["pc_interactions"] == s.n_pc_interactions
    assert counters["pp_pairs"] == s.n_pp_pairs
    assert counters["terms_evaluated"] == s.n_terms
    by_deg = counters["pc_interactions_by_degree"]["series"]
    assert {int(k): v for k, v in by_deg.items()} == s.interactions_by_degree
    # Theorem-1 accounting rides along per level
    tc_runs = rec.report()["treecode_runs"]
    assert tc_runs[0]["stats"]["bound_by_level"]
    assert sum(s.bound_by_level.values()) == pytest.approx(
        float(np.sum(res.error_bound))
    )


def test_parallel_executor_block_spans(rng):
    pts = rng.random((400, 3))
    q = rng.uniform(-1, 1, 400)
    tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
    plan = tc.compile_plan()
    tracing.enable()
    res = evaluate_plan_parallel(plan, q, n_threads=2)
    events = tracing.get_tracer().events()
    blocks = [e for e in events if e["name"] == "parallel.block"]
    assert len(blocks) == res.n_blocks == plan.n_units
    assert sorted(e["args"]["unit"] for e in blocks) == list(range(plan.n_units))
    h = REGISTRY.get("parallel_block_seconds")
    assert h is not None and h.count == res.n_blocks
    # counters aggregate across worker threads
    assert REGISTRY.get("pc_interactions").value == res.stats.n_pc_interactions


def test_gmres_residual_metrics_and_spans(rng):
    A = rng.random((30, 30)) + 15 * np.eye(30)
    b = rng.random(30)
    tracing.enable()
    res = gmres(lambda v: A @ v, b, restart=10, tol=1e-10)
    assert res.converged
    assert REGISTRY.get("gmres_iterations").value == res.n_iterations
    assert REGISTRY.get("gmres_residual").value == pytest.approx(res.history[-1])
    hist = REGISTRY.get("gmres_residual_hist")
    assert hist.count == res.n_iterations
    names = [e["name"] for e in tracing.get_tracer().events()]
    assert "gmres.cycle" in names
    assert names.count("gmres.matvec") >= res.n_iterations


def test_recorder_restores_prior_state_and_saves(tmp_path, rng):
    assert not tracing.is_enabled()
    rec = RunRecorder("demo")
    with rec:
        assert tracing.is_enabled()
        with span("only.inside"):
            pass
        rec.record("note", {"k": 1})
    assert not tracing.is_enabled()
    # spans emitted after the block don't leak into the snapshot
    tracing.enable()
    with span("after"):
        pass
    report = rec.report()
    assert [e["name"] for e in report["spans"]] == ["only.inside"]
    assert report["extra"] == {"note": {"k": 1}}
    assert report["wall_time"] > 0
    path = tmp_path / "report.json"
    rec.save(str(path))
    assert json.loads(path.read_text())["name"] == "demo"


def test_recorder_gmres_history(rng):
    A = rng.random((20, 20)) + 10 * np.eye(20)
    b = rng.random(20)
    rec = RunRecorder("solve")
    with rec:
        res = gmres(lambda v: A @ v, b, tol=1e-10)
        rec.record_gmres("solve", res)
    run = rec.report()["gmres_runs"][0]
    assert run["converged"]
    assert run["history"] == res.history
    assert run["n_iterations"] == res.n_iterations


def test_recorder_write_outputs(tmp_path, rng):
    pts = rng.random((200, 3))
    rec = RunRecorder("out")
    with rec:
        tc = Treecode(pts, np.ones(200), degree_policy=FixedDegree(3), alpha=0.5)
        tc.evaluate()
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.txt"
    rec.write_trace(str(trace_path))
    rec.write_metrics(str(metrics_path))
    assert json.loads(trace_path.read_text())["traceEvents"]
    text = metrics_path.read_text()
    assert "pc_interactions" in text
    json_path = tmp_path / "m.json"
    rec.write_metrics(str(json_path), fmt="json")
    assert "counters" in json.loads(json_path.read_text())


def test_disabled_run_records_nothing(rng):
    pts = rng.random((300, 3))
    tc = Treecode(pts, np.ones(300), degree_policy=FixedDegree(3), alpha=0.5)
    tc.evaluate()
    assert len(tracing.get_tracer()) == 0
    # evaluate compiles a plan: events count with tracing off, nothing else
    assert REGISTRY.names() == ["plan_compiles"]
    # stats timing still works without observability
    assert tc.base_stats.build_time > 0
