"""Tests for the command-line experiment runner."""

import json

import pytest

import repro.cli as cli


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["does-not-exist"])


def test_missing_argument_rejected():
    with pytest.raises(SystemExit):
        cli.main([])


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        cli.main(["table1", "--scale", "gigantic"])


def test_all_commands_registered():
    assert set(cli._COMMANDS) == {
        "table1",
        "fig2",
        "table2",
        "table3",
        "cost-ratio",
        "alpha-sweep",
        "leaf-sweep",
        "ordering",
        "fmm",
    }


def test_dispatch_and_options(monkeypatch, capsys):
    """main() parses options, dispatches, and prints the command output."""
    seen = {}

    def fake(args):
        seen["scale"] = args.scale
        seen["p0"] = args.p0
        seen["alpha"] = args.alpha
        return "FAKE-TABLE-OUTPUT"

    monkeypatch.setitem(cli._COMMANDS, "table1", fake)
    rc = cli.main(["table1", "--scale", "full", "--p0", "5", "--alpha", "0.3"])
    assert rc == 0
    assert seen == {"scale": "full", "p0": 5, "alpha": 0.3}
    assert "FAKE-TABLE-OUTPUT" in capsys.readouterr().out


def test_all_runs_every_command(monkeypatch, capsys):
    calls = []
    for name in list(cli._COMMANDS):
        monkeypatch.setitem(
            cli._COMMANDS, name, lambda args, n=name: calls.append(n) or f"out-{n}"
        )
    rc = cli.main(["all"])
    assert rc == 0
    assert sorted(calls) == sorted(cli._COMMANDS)
    out = capsys.readouterr().out
    for name in cli._COMMANDS:
        assert f"out-{name}" in out


def test_profile_requires_valid_target():
    with pytest.raises(SystemExit):
        cli.main(["profile"])
    with pytest.raises(SystemExit):
        cli.main(["profile", "not-an-experiment"])


def test_target_rejected_without_profile():
    with pytest.raises(SystemExit):
        cli.main(["table1", "fig2"])


def test_profile_runs_observed_and_exports(monkeypatch, capsys, tmp_path):
    """profile enables observability around the experiment, prints a
    span/counter summary, and writes trace + metrics files."""
    from repro.obs import tracing

    def fake(args):
        assert tracing.is_enabled()
        with tracing.span("fake.phase"):
            pass
        return "FAKE-OUT"

    monkeypatch.setitem(cli._COMMANDS, "table1", fake)
    trace = tmp_path / "t.json"
    mets = tmp_path / "m.txt"
    report = tmp_path / "r.json"
    rc = cli.main(
        ["profile", "table1", "--trace", str(trace), "--metrics", str(mets),
         "--report", str(report)]
    )
    assert rc == 0
    assert not tracing.is_enabled()  # restored afterwards
    out = capsys.readouterr().out
    assert "FAKE-OUT" in out
    assert "profile: table1" in out
    assert "fake.phase" in out
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["name"] == "fake.phase" for e in events)
    assert json.loads(report.read_text())["name"] == "table1"
    assert mets.exists()


def test_trace_flag_on_plain_subcommand(monkeypatch, tmp_path):
    from repro.obs import tracing

    def fake(args):
        assert tracing.is_enabled()
        with tracing.span("plain.phase"):
            pass
        return "OUT"

    monkeypatch.setitem(cli._COMMANDS, "fig2", fake)
    trace = tmp_path / "t.json"
    rc = cli.main(["fig2", "--trace", str(trace)])
    assert rc == 0
    assert not tracing.is_enabled()
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["name"] == "plain.phase" for e in events)


def test_bad_fault_spec_rejected():
    with pytest.raises(SystemExit):
        cli.main(["table1", "--inject-faults", "nosuchmode:0.5"])


def test_checkpoint_limited_to_resumable_commands():
    with pytest.raises(SystemExit):
        cli.main(["table1", "--checkpoint", "/tmp/nope.json"])


def test_inject_faults_scoped_to_the_run(monkeypatch):
    from repro.robust import faults

    seen = []

    def fake(args):
        inj = faults.active_injector()
        seen.append({r.mode for r in inj.rules} if inj else None)
        return "OUT"

    monkeypatch.setitem(cli._COMMANDS, "fig2", fake)
    prev = faults.active_injector()
    rc = cli.main(["fig2", "--inject-faults", "block_error:0.1"])
    assert rc == 0
    assert seen == [{"block_error"}]
    assert faults.active_injector() is prev  # restored after the run


def test_seed_flag_reaches_command(monkeypatch):
    seen = {}

    def fake(args):
        seen["seed"] = args.seed
        return "OUT"

    monkeypatch.setitem(cli._COMMANDS, "fig2", fake)
    assert cli.main(["fig2", "--seed", "42"]) == 0
    assert seen["seed"] == 42


def test_backend_flag_rejected_off_table2():
    """There is one executor: ``--backend`` is no option of any command,
    table2 included."""
    with pytest.raises(SystemExit):
        cli.main(["table1", "--backend", "process"])
    with pytest.raises(SystemExit):
        cli.main(["profile", "fig2", "--backend", "serial"])
    with pytest.raises(SystemExit):
        cli.main(["table2", "--backend", "nosuch"])
    with pytest.raises(SystemExit):
        cli.main(["table2", "--backend", "thread"])


def test_journal_flag_wraps_failing_run(monkeypatch, tmp_path):
    """run_end is journaled with an error status even when the command
    raises, and the active journal is restored."""
    from repro.obs import journal
    from repro.obs.journal import read_journal

    def boom(args):
        raise RuntimeError("exploded")

    monkeypatch.setitem(cli._COMMANDS, "fig2", boom)
    path = tmp_path / "run.jsonl"
    with pytest.raises(RuntimeError):
        cli.main(["fig2", "--journal", str(path)])
    events = read_journal(str(path))
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "run_end"
    assert events[-1]["data"]["status"] == "error"
    assert journal.get_journal() is None
