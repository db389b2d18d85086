"""Tests for the structured run journal (repro.obs.journal) and the
event table that feeds it (repro.obs.events)."""

import json
import os

import numpy as np
import pytest

from repro.obs import EVENTS, REGISTRY, emit, journal, tracing
from repro.obs.events import validate_event
from repro.obs.journal import Journal, read_journal
from repro.obs.tracing import span
from repro.robust.guards import (
    NumericalCorruptionError,
    check_finite,
    solve_with_recovery,
)
from repro.robust.retry import RetryExhausted, RetryPolicy, retry_call


@pytest.fixture(autouse=True)
def clean_obs():
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    journal.set_journal(None)
    yield
    tracing.disable()
    tracing.get_tracer().clear()
    REGISTRY.reset()
    journal.set_journal(None)


def test_envelope_and_sequence(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        j.write("alpha", {"x": 1})
        j.write("beta", {"arr": np.float64(2.5), "n": np.int64(7)})
    events = read_journal(str(path))
    assert [e["event"] for e in events] == ["alpha", "beta"]
    for i, e in enumerate(events):
        assert e["v"] == journal.SCHEMA_VERSION
        assert e["seq"] == i
        assert e["pid"] == os.getpid()
        assert isinstance(e["ts"], float)
    # numpy scalars were coerced to plain JSON numbers
    assert events[1]["data"] == {"arr": 2.5, "n": 7}


def test_emit_noop_without_active_journal():
    emit("retry", site="s", attempt=1, error="E")  # must not raise
    assert REGISTRY.counter("block_retries").value == 1  # counted regardless


def test_emit_unknown_event_or_missing_key_raises():
    """A typo in an event name or a payload key fails loudly."""
    with pytest.raises(KeyError, match="retyr"):
        emit("retyr", site="s", attempt=1, error="E")
    with pytest.raises(ValueError, match="attempt"):
        emit("retry", site="s", error="E")
    assert REGISTRY.names() == []  # nothing was counted


def test_append_mode_extends_existing_file(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        j.write("first", {})
    with Journal(str(path)) as j:
        j.write("second", {})
    assert [e["event"] for e in read_journal(str(path))] == ["first", "second"]


def test_emit_after_close_is_noop(tmp_path):
    path = tmp_path / "run.jsonl"
    j = Journal(str(path))
    j.write("kept", {})
    j.close()
    j.write("dropped", {})
    assert [e["event"] for e in read_journal(str(path))] == ["kept"]


def test_forked_child_inherits_inert_journal(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        j.write("parent", {})
        pid = os.fork()
        if pid == 0:  # child: write must be a no-op
            j.write("child", {})
            os._exit(0)
        os.waitpid(pid, 0)
        j.write("parent_again", {})
    assert [e["event"] for e in read_journal(str(path))] == [
        "parent",
        "parent_again",
    ]


def test_phase_spans_journal_through_tracer(tmp_path):
    path = tmp_path / "run.jsonl"
    tracing.enable()
    with Journal(str(path)) as j:
        journal.set_journal(j)
        with span("treecode.build", n=100):
            pass
        with span("not.a.phase"):
            pass
    journal.set_journal(None)
    events = read_journal(str(path))
    assert len(events) == 1
    assert events[0]["event"] == "phase"
    assert events[0]["data"]["name"] == "treecode.build"
    assert events[0]["data"]["args"] == {"n": 100}
    assert events[0]["data"]["dur_s"] >= 0


def test_retry_and_guard_trips_are_journaled(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        journal.set_journal(j)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ValueError("boom")
            return "ok"

        value, attempts = retry_call(
            flaky, RetryPolicy(max_retries=2, base_delay=0.0), site="test.site"
        )
        assert value == "ok" and attempts == 2
        with pytest.raises(NumericalCorruptionError):
            check_finite("test.guard", np.array([1.0, np.nan]))
        with pytest.raises(RetryExhausted):
            retry_call(
                lambda: (_ for _ in ()).throw(ValueError("always")),
                RetryPolicy(max_retries=1, base_delay=0.0),
                site="test.site",
            )
        # restarted GMRES on a cyclic shift stagnates at every restart
        # length, so the recovery escalates and then solves densely
        n = 8
        A = np.roll(np.eye(n), 1, axis=0)
        b = np.zeros(n)
        b[0] = 1.0
        out = solve_with_recovery(
            lambda v: A @ v, b, restart=1, tol=1e-12, maxiter=200,
            escalations=(2,), dense_limit=n,
        )
        assert out.result.converged
    journal.set_journal(None)
    events = read_journal(str(path))
    kinds = [e["event"] for e in events]
    assert kinds.count("retry") == 2
    assert "guard_trip" in kinds
    assert kinds.count("gmres_escalation") == 1
    assert kinds.count("gmres_dense_fallback") == 1
    assert kinds.count("gmres_stagnation") >= 1
    # every event's journal line count equals its counter
    counters = REGISTRY.to_dict()["counters"]
    for name in ("retry", "guard_trip", "gmres_escalation", "gmres_dense_fallback",
                 "gmres_stagnation"):
        assert kinds.count(name) == counters[EVENTS[name].counter], name
    esc = next(e for e in events if e["event"] == "gmres_escalation")
    assert esc["data"] == {"restart": 2, "reason": "stagnation"}
    retry_ev = next(e for e in events if e["event"] == "retry")
    assert retry_ev["data"] == {
        "site": "test.site",
        "attempt": 1,
        "error": "ValueError",
    }
    guard_ev = next(e for e in events if e["event"] == "guard_trip")
    assert guard_ev["data"] == {"site": "test.guard", "reason": "non_finite"}


def test_checkpoint_events_are_journaled(tmp_path):
    from repro.robust import Checkpoint
    from repro.robust.checkpoint import cached_step

    jpath = tmp_path / "run.jsonl"
    cpath = str(tmp_path / "ck.json")
    with Journal(str(jpath)) as j:
        journal.set_journal(j)
        ck = Checkpoint(cpath, meta={"exp": "t"})
        assert cached_step(ck, "step1", lambda: 42) == 42
        ck2 = Checkpoint(cpath, meta={"exp": "t"})
        assert cached_step(ck2, "step1", lambda: 99) == 42  # resumed
    journal.set_journal(None)
    kinds = [e["event"] for e in read_journal(str(jpath))]
    assert "checkpoint_write" in kinds
    assert "checkpoint_resume" in kinds


def test_plan_compile_journaled(tmp_path):
    from repro.core.degree import FixedDegree
    from repro.core.treecode import Treecode
    from repro.data.distributions import make_distribution, unit_charges

    n = 300
    pts = make_distribution("uniform", n, seed=3)
    q = unit_charges(n, seed=4, signed=True)
    tc = Treecode(pts, q, degree_policy=FixedDegree(3), alpha=0.5)
    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        journal.set_journal(j)
        tc.compile_plan()
    journal.set_journal(None)
    events = [e for e in read_journal(str(path)) if e["event"] == "plan_compile"]
    assert len(events) == 1
    data = events[0]["data"]
    assert data["mode"] == "target"
    assert data["targets"] == n
    assert data["memory_bytes"] > 0
    assert data["compile_s"] >= 0


# ---------------------------------------------------------------------------
# the event table's schema (v2: adds the supervisor.* family)
# ---------------------------------------------------------------------------
def test_schema_v1_journal_still_parses(tmp_path):
    """The v2 bump changed no envelope field, so v1 journals written by
    older runs must still parse through read_journal unchanged."""
    path = tmp_path / "old.jsonl"
    v1 = {
        "v": 1,
        "seq": 0,
        "ts": 123.0,
        "pid": 1,
        "event": "retry",
        "data": {"site": "parallel.block", "attempt": 1, "error": "E"},
    }
    path.write_text(json.dumps(v1) + "\n")
    assert read_journal(str(path)) == [v1]
    # ...but a v1 entry never validates against the current table
    assert not validate_event(v1)


def test_every_emitted_supervisor_event_validates(tmp_path):
    """Each supervisor.* event the Supervisor actually emits carries a
    v2 envelope and every required payload key of its type."""
    from repro.robust.supervisor import Supervisor, SupervisorConfig

    path = tmp_path / "run.jsonl"
    with Journal(str(path)) as j:
        journal.set_journal(j)
        sup = Supervisor(SupervisorConfig())
        emit(
            "supervisor.heartbeat_miss", slot=0, unit=3, waited_s=1.5,
            deadline_s=1.0,
        )
        sup.on_reap(0, 3, 1.5, 1.0)
        sup.on_worker_death(1, None)
        sup.record_failure(3)
        sup.record_failure(3)
        sup.on_quarantine(3, "redo")
        emit("supervisor.memory_shed", freed_bytes=1024, rss=2048, budget=4096)
        sup.trip("worker_mortality")
        sup.on_degrade("thread", "serial", "worker_mortality", 5)
    journal.set_journal(None)
    sup_events = [
        e for e in read_journal(str(path)) if e["event"].startswith("supervisor.")
    ]
    # the synthetic run exercised the full v2 event family
    assert {e["event"] for e in sup_events} == {
        name for name in EVENTS if name.startswith("supervisor.")
    }
    for e in sup_events:
        assert e["v"] == journal.SCHEMA_VERSION == 2
        assert validate_event(e)


def test_validate_event_rejects_malformed():
    good = {
        "v": 2,
        "event": "supervisor.reap",
        "data": {
            "slot": 0,
            "unit": 1,
            "waited_s": 2.0,
            "deadline_s": 1.0,
        },
    }
    assert validate_event(good)
    assert not validate_event({**good, "v": 1})  # old envelope
    assert not validate_event({**good, "event": "supervisor.unknown"})
    assert not validate_event({**good, "data": {"slot": 0}})
    assert not validate_event(
        {"v": 2, "event": "retry", "data": {}}  # missing required keys
    )


def test_cli_journal_wraps_run(tmp_path):
    """--journal on a real (tiny) CLI run produces run_start ... run_end."""
    from repro.cli import main

    path = tmp_path / "run.jsonl"
    code = main(
        ["leaf-sweep", "--seed", "0", "--journal", str(path)]
    )
    assert code == 0
    events = read_journal(str(path))
    assert events[0]["event"] == "run_start"
    assert events[0]["data"]["command"] == "leaf-sweep"
    assert events[-1]["event"] == "run_end"
    assert events[-1]["data"] == {"status": "ok", "exit_code": 0}
    # --journal implies observability: compute phases were journaled
    assert any(e["event"] == "phase" for e in events)
    # the active journal was restored afterwards
    assert journal.get_journal() is None
