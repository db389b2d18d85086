"""Telemetry of the thread fleet: per-event pids in Chrome traces,
histogram quantiles, and fleet/serial counter and journal agreement
under fault load."""

import json
import os
import threading

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
# per-event pids
# ---------------------------------------------------------------------------
def test_chrome_trace_uses_per_event_pid(monkeypatch):
    """Each span keeps the pid it was recorded under, not the exporter's."""
    tracing.enable()
    with span("parent_side"):
        pass
    with monkeypatch.context() as m:
        m.setattr(tracing.os, "getpid", lambda: 4242)
        with span("other_side"):
            pass
    chrome = tracing.get_tracer().to_chrome_trace()
    by_name = {e["name"]: e for e in chrome["traceEvents"]}
    assert by_name["parent_side"]["pid"] == os.getpid()
    assert by_name["other_side"]["pid"] == 4242
    for ev in chrome["traceEvents"]:
        assert ev["ph"] == "X"
        assert {"pid", "tid", "ts", "dur"} <= set(ev)


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
# end to end: two fleet workers == one, with worker threads in the trace
# ---------------------------------------------------------------------------
def _run_plan(plan, q, n_workers, journal_path):
    """One observed, journaled evaluate_plan_parallel run; returns
    (potential, counters, chrome trace, journal lines)."""
    tracing.get_tracer().clear()
    REGISTRY.reset()
    tracing.enable()
    # fresh injector per run: identical deterministic draw streams.
    # seed 4 makes draw #0 of the block_error stream fire at rate 0.2,
    # so the first unit attempt faults and retries
    set_injector(FaultInjector(parse_fault_spec("block_error:0.2"), seed=4))
    with Journal(str(journal_path)) as j:
        journal.set_journal(j)
        try:
            res = evaluate_plan_parallel(plan, q, n_threads=n_workers)
        finally:
            journal.set_journal(None)
    set_injector(None)
    counters = {
        k: v
        for k, v in REGISTRY.to_dict()["counters"].items()
        if not isinstance(v, dict)
    }
    chrome = tracing.get_tracer().to_chrome_trace()
    tracing.disable()
    return res.potential, counters, chrome, read_journal(str(journal_path))


def test_thread_fleet_matches_serial_under_faults(tmp_path):
    n = 400
    pts = make_distribution("uniform", n, seed=5)
    q = unit_charges(n, seed=6, signed=True)
    q2 = unit_charges(n, seed=7, signed=True)
    tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
    plan = tc.compile_plan(n_units=6)

    phi_s, counters_s, _, lines_s = _run_plan(plan, q2, 1, tmp_path / "one.jsonl")
    phi_t, counters_t, chrome, lines_t = _run_plan(
        plan, q2, 2, tmp_path / "two.jsonl"
    )

    # bitwise-identical result despite retries and another worker count
    np.testing.assert_array_equal(phi_s, phi_t)

    # deterministic work counters agree exactly (fault recovery reruns
    # identical arithmetic; plan accounting is frozen at compile time)
    for name in ("pc_interactions", "pp_pairs", "terms_evaluated"):
        assert counters_t[name] == counters_s[name], name

    # the armed injector fired and the workers' recovery was counted
    for counters in (counters_s, counters_t):
        assert counters.get("faults_injected", 0) > 0
        assert counters.get("block_retries", 0) > 0

    # the journal and the counters agree: events raised on worker
    # threads reach the journal directly, one line per count
    for lines, counters in ((lines_s, counters_s), (lines_t, counters_t)):
        kinds = [e["event"] for e in lines]
        for event, counter in (
            ("fault_injected", "faults_injected"),
            ("retry", "block_retries"),
            ("fallback", "block_fallbacks"),
        ):
            assert kinds.count(event) == counters.get(counter, 0), event
        assert all(e["pid"] == os.getpid() for e in lines)

    # the exported Chrome trace is valid, and worker-side unit spans
    # sit on the fleet's threads, not the coordinator's
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(chrome))
    loaded = json.loads(path.read_text())
    for ev in loaded["traceEvents"]:
        assert ev["ph"] == "X"
        assert {"pid", "tid", "ts", "dur", "name"} <= set(ev)
        assert ev["pid"] == os.getpid()
    blocks = [e for e in loaded["traceEvents"] if e["name"] == "parallel.block"]
    assert blocks, "worker-side unit spans missing from the trace"
    assert threading.get_ident() not in {e["tid"] for e in blocks}
