"""Cross-process telemetry: worker snapshot/merge, per-event pids in
Chrome traces, and serial/process counter and journal agreement under
fault load."""

import json
import os

import numpy as np
import pytest

from repro.core.degree import FixedDegree
from repro.core.treecode import Treecode
from repro.data.distributions import make_distribution, unit_charges
from repro.obs import REGISTRY, journal, tracing
from repro.obs.journal import Journal, read_journal
from repro.obs.metrics import MetricsRegistry, bucket_quantiles
from repro.obs.tracing import span
from repro.parallel import evaluate_plan_parallel
from repro.robust import FaultInjector, parse_fault_spec, set_injector


@pytest.fixture(autouse=True)
def clean_obs():
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    set_injector(None)
    yield
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    set_injector(None)


# ---------------------------------------------------------------------------
# tracer snapshot / ingest
# ---------------------------------------------------------------------------
def test_snapshot_roundtrip_preserves_pid_and_times():
    tracing.enable()
    with span("work", unit=3):
        pass
    snap = tracing.get_tracer().snapshot()
    assert len(snap) == 1
    name, cat, pid, tid, t0, t1, args = snap[0]
    assert name == "work" and pid == os.getpid() and t1 >= t0
    assert args == {"unit": 3}
    json.dumps(snap)  # picklable/serializable payload shape

    # ingest into a cleared tracer under a fake worker pid
    tracing.get_tracer().clear()
    fake = list(snap[0])
    fake[2] = 99999
    tracing.get_tracer().ingest([fake])
    events = tracing.get_tracer().events()
    assert events[0]["pid"] == 99999
    assert events[0]["name"] == "work"


def test_chrome_trace_uses_per_event_pid():
    tracing.enable()
    with span("parent_side"):
        pass
    snap = tracing.get_tracer().snapshot()
    fake = list(snap[0])
    fake[0], fake[2] = "worker_side", 4242
    tracing.get_tracer().ingest([fake])
    chrome = tracing.get_tracer().to_chrome_trace()
    by_name = {e["name"]: e for e in chrome["traceEvents"]}
    assert by_name["parent_side"]["pid"] == os.getpid()
    assert by_name["worker_side"]["pid"] == 4242
    for ev in chrome["traceEvents"]:
        assert ev["ph"] == "X"
        assert {"pid", "tid", "ts", "dur"} <= set(ev)


# ---------------------------------------------------------------------------
# registry merge semantics
# ---------------------------------------------------------------------------
def test_merge_snapshot_counters_gauges_histograms():
    worker = MetricsRegistry()
    worker.counter("pc_interactions").inc(100)
    worker.counter("by_degree", labelnames=("degree",)).labels(degree=4).inc(7)
    worker.gauge("tree_height").set(9)
    h = worker.histogram("block_seconds")
    h.observe(0.5)
    h.observe(3.0)

    parent = MetricsRegistry()
    parent.counter("pc_interactions").inc(11)
    parent.gauge("tree_height").set(2)
    parent.histogram("block_seconds").observe(0.5)

    parent.merge_snapshot(worker.to_dict())
    assert parent.counter("pc_interactions").value == 111  # counters sum
    assert parent.gauge("tree_height").value == 9  # last write wins
    assert (
        parent.counter("by_degree", labelnames=("degree",))
        .labels(degree=4)
        .value
        == 7
    )
    merged = parent.histogram("block_seconds")
    assert merged.count == 3  # bucket-wise merge
    assert merged.sum == pytest.approx(4.0)
    bounds = dict(merged.bucket_bounds())
    assert bounds[0.5] == 2  # both 0.5s observations share a bucket
    assert bounds[4.0] == 1


def test_merge_snapshot_is_associative_with_empty():
    parent = MetricsRegistry()
    parent.merge_snapshot(MetricsRegistry().to_dict())
    assert parent.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


# ---------------------------------------------------------------------------
# histogram quantiles
# ---------------------------------------------------------------------------
def test_bucket_quantiles_basic():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for _ in range(90):
        h.observe(1.0)
    for _ in range(10):
        h.observe(100.0)
    # p50 sits in the value-1 bucket, p99 in the value-100 bucket
    assert h.quantile(0.5) <= 1.0 + 1e-12
    assert h.quantile(0.99) > 64.0
    snap = h._json()
    assert snap["p50"] == h.quantile(0.5)
    assert snap["p95"] is not None and snap["p99"] is not None


def test_bucket_quantiles_empty_and_zero():
    assert bucket_quantiles([], 0)[0.5] is None
    qs = bucket_quantiles([(0.0, 10)], 10, (0.5,))
    assert qs[0.5] == 0.0


# ---------------------------------------------------------------------------
# end to end: process backend == serial backend, with worker pids
# ---------------------------------------------------------------------------
def _run_plan(plan, q, backend, n_workers, journal_path):
    """One observed, journaled evaluate_plan_parallel run; returns
    (potential, counters, distinct span pids, chrome trace, journal
    lines)."""
    tracing.get_tracer().clear()
    REGISTRY.reset()
    tracing.enable()
    # fresh injector per run: identical deterministic draw streams.
    # seed 4 makes draw #0 of the block_error stream fire at rate 0.2,
    # so every worker's first unit attempt faults and retries — the
    # recovery telemetry is guaranteed to flow through the merge
    set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=4))
    with Journal(str(journal_path)) as j:
        journal.set_journal(j)
        try:
            res = evaluate_plan_parallel(
                plan,
                q,
                n_threads=n_workers,
                backend="thread" if backend == "serial" else backend,
            )
        finally:
            journal.set_journal(None)
    set_injector(None)
    counters = {
        k: v
        for k, v in REGISTRY.to_dict()["counters"].items()
        if not isinstance(v, dict)
    }
    pids = {e["pid"] for e in tracing.get_tracer().events()}
    chrome = tracing.get_tracer().to_chrome_trace()
    tracing.disable()
    return res.potential, counters, pids, chrome, read_journal(str(journal_path))


@pytest.mark.skipif(os.name != "posix", reason="fork-based process pool")
def test_process_backend_matches_serial_under_faults(tmp_path):
    n = 400
    pts = make_distribution("uniform", n, seed=5)
    q = unit_charges(n, seed=6, signed=True)
    q2 = unit_charges(n, seed=7, signed=True)
    tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
    plan = tc.compile_plan(n_units=6)

    phi_s, counters_s, pids_s, _, lines_s = _run_plan(
        plan, q2, "serial", 1, tmp_path / "serial.jsonl"
    )
    phi_p, counters_p, pids_p, chrome, lines_p = _run_plan(
        plan, q2, "process", 2, tmp_path / "process.jsonl"
    )

    # bitwise-identical result despite retries and a different backend
    np.testing.assert_array_equal(phi_s, phi_p)

    # deterministic work counters agree exactly (fault recovery rereuns
    # identical arithmetic; plan accounting is frozen at compile time)
    for name in ("pc_interactions", "pp_pairs", "terms_evaluated"):
        assert counters_p[name] == counters_s[name], name

    # the armed injector fired and the worker-side recovery telemetry
    # made it back through the snapshot merge
    assert counters_s.get("faults_injected", 0) > 0
    assert counters_p.get("faults_injected", 0) > 0
    assert counters_p.get("block_retries", 0) > 0
    assert counters_p["worker_snapshots_merged"] > 0

    # the journal and the counters agree on both backends: events raised
    # inside process workers reach the parent's journal under their pids
    for lines, counters in ((lines_s, counters_s), (lines_p, counters_p)):
        kinds = [e["event"] for e in lines]
        for event, counter in (
            ("fault_injected", "faults_injected"),
            ("retry", "block_retries"),
            ("fallback", "block_fallbacks"),
        ):
            assert kinds.count(event) == counters.get(counter, 0), event
    worker_retries = [e for e in lines_p if e["event"] == "retry"]
    assert worker_retries and all(e["pid"] != os.getpid() for e in worker_retries)

    # spans from the workers carry their true pids
    assert pids_s == {os.getpid()}
    assert len(pids_p) > 1 and os.getpid() in pids_p

    # exported Chrome trace is valid and keeps the worker pids distinct
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(chrome))
    loaded = json.loads(path.read_text())
    trace_pids = set()
    for ev in loaded["traceEvents"]:
        assert ev["ph"] == "X"
        assert {"pid", "tid", "ts", "dur", "name"} <= set(ev)
        trace_pids.add(ev["pid"])
    assert len(trace_pids) > 1
    worker_blocks = [
        e
        for e in loaded["traceEvents"]
        if e["name"] == "parallel.block" and e["pid"] != os.getpid()
    ]
    assert worker_blocks, "worker-side unit spans missing from the trace"
