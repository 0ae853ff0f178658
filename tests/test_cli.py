from repro.cli import MISSING_CELL, evaluation_row, main
from repro.pipeline import AnalysisSummary, WorkloadEvaluation


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "470.lbm" in out and "blackscholes" in out
    assert out.count("\n") >= 29


def test_cli_dump(capsys):
    assert main(["dump", "164.gzip"]) == 0
    out = capsys.readouterr().out
    assert "define i32 @deflate_longest_match" in out
    assert "condbr" in out


def test_cli_analyze(capsys):
    assert main(["analyze", "482.sphinx3", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "executed paths" in out
    assert "braid frame" in out


def test_cli_analyze_runs_the_interpreter_once(tmp_path, capsys, monkeypatch):
    import json

    from repro.workloads import base

    # a profile another test left in the in-process cache would skip the run
    monkeypatch.setattr(base, "_PROFILE_CACHE", {})
    out_path = tmp_path / "m.json"
    argv = ["analyze", "164.gzip", "--no-cache", "--metrics-out", str(out_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # the mix is read from the profile's trace, not from a second run
    assert "dynamic mix: 62% int, 0% fp, 6% memory, 32% control\n" in out
    metrics = json.loads(out_path.read_text())["metrics"]
    runs = [
        series["value"]
        for m in metrics
        if m["name"] == "interp.runtime.runs"
        for series in m["series"]
    ]
    assert runs == [1]


def test_cli_evaluate_single(capsys):
    assert main(["evaluate", "482.sphinx3"]) == 0
    out = capsys.readouterr().out
    assert "482.sphinx3" in out
    assert "braid" in out


def test_cli_dump_roundtrips_through_parser(capsys):
    from repro.ir import parse_module, verify_module

    main(["dump", "dwt53"])
    text = capsys.readouterr().out
    module = parse_module(text)
    verify_module(module)
    assert "dwt53_row_transpose" in module.functions


def _empty_evaluation(name="barren"):
    """A workload that produced no path frame, no braid frame, nothing."""
    summary = AnalysisSummary(
        name=name,
        suite="spec",
        flavor="int",
        executed_paths=0,
        total_executions=0,
        top_path_coverage=0.0,
        top_path_ops=0,
        braid_n_paths=0,
        braid_coverage=0.0,
        path_frame=None,
        braid_frame=None,
    )
    return WorkloadEvaluation(
        summary=summary,
        path_oracle=None,
        path_history=None,
        braid=None,
        hls=None,
        braid_schedule=None,
    )


def test_evaluation_row_renders_missing_outcomes_as_dashes():
    # regression: this used to raise AttributeError on outcome.<attr>
    row = evaluation_row("barren", _empty_evaluation())
    assert row == ("barren",) + (MISSING_CELL,) * 5


def test_cli_evaluate_prints_dashes_for_missing_outcomes(capsys, monkeypatch):
    import repro.cli as cli
    import repro.workloads as workloads

    class _StubPipeline:
        def evaluate_all(self, suite):
            return [_empty_evaluation(w.name) for w in suite]

    monkeypatch.setattr(cli, "_make_pipeline", lambda args: _StubPipeline())
    monkeypatch.setattr(workloads, "all_names", lambda: ["barren"])
    monkeypatch.setattr(
        workloads, "get", lambda name: type("W", (), {"name": name})()
    )
    assert main(["evaluate"]) == 0
    out = capsys.readouterr().out
    assert "barren" in out
    assert MISSING_CELL in out


def test_cli_evaluate_metrics_out_writes_registry_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "m.json"
    argv = ["evaluate", "dwt53", "--no-cache", "--metrics-out", str(out_path)]
    assert main(argv) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    names = [m["name"] for m in data["metrics"]]
    assert "interp.instructions_retired" in names
    assert "pipeline.workloads_evaluated" in names
    assert data["spans"], "span tree missing from metrics dump"


def test_cli_metrics_command_table_and_prom(capsys):
    assert main(["metrics", "dwt53", "--no-cache"]) == 0
    table = capsys.readouterr().out
    assert "*interp.instructions_retired" in table
    assert "* = semantic" in table

    assert main(["metrics", "dwt53", "--no-cache", "--format", "prom"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE interp_instructions_retired counter" in prom
    assert 'interp_instructions_retired{workload="dwt53"}' in prom


def test_cli_metrics_command_json(capsys):
    import json

    assert main(["metrics", "dwt53", "--no-cache", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(
        m["name"] == "sim.cycles" for m in data["metrics"]
    )


def test_cli_trace_command_prints_span_tree(capsys):
    assert main(["trace", "dwt53", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "evaluate (workload=dwt53)" in out
    assert "ms" in out


def test_cli_trace_format_chrome_emits_trace_events(capsys):
    import json

    assert main(["trace", "dwt53", "--no-cache", "--format", "chrome"]) == 0
    doc = json.loads(capsys.readouterr().out)
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" and e["pid"] == 1 for e in events)  # spans
    assert any(e["ph"] == "X" and e["pid"] == 2 for e in events)  # sim tracks
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "dwt53/braid" in names


def test_cli_trace_format_json_emits_span_forest(capsys):
    import json

    assert main(["trace", "dwt53", "--no-cache", "--format", "json"]) == 0
    forest = json.loads(capsys.readouterr().out)
    assert isinstance(forest, list) and forest
    assert any(n["name"] == "evaluate" for n in forest)


def test_cli_trace_without_span_data_exits_cleanly(capsys, monkeypatch):
    import repro.cli as cli

    # simulate a run that recorded nothing: no spans, no sim tracks
    monkeypatch.setattr(
        cli, "_run_evaluations", lambda args, opts: ([], [], None)
    )
    for fmt in ("tree", "json", "chrome"):
        assert main(["trace", "dwt53", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "nothing to trace" in captured.err
        assert "Traceback" not in captured.err


def test_cli_evaluate_with_metrics_flag_appends_table(capsys):
    assert main(["evaluate", "dwt53", "--no-cache", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "Needle offload evaluation" in out  # the normal table first
    assert "* = semantic" in out  # then the metrics listing


def test_cli_evaluate_with_cache_dir_and_jobs(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["evaluate", "482.sphinx3", "--cache-dir", cache_dir]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    assert main(argv + ["--jobs", "2"]) == 0  # warm, still exits clean
    warm = capsys.readouterr().out
    assert warm == cold  # cached rows identical to computed rows

    assert main(["evaluate", "482.sphinx3", "--no-cache"]) == 0
    assert capsys.readouterr().out == cold


# -- live telemetry surface ---------------------------------------------------


def test_cli_metrics_from_saved_snapshot(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    assert main(["metrics", "dwt53", "--no-cache",
                 "--metrics-out", str(snap)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--from", str(snap)]) == 0
    table = capsys.readouterr().out
    assert "interp.instructions_retired" in table
    assert main(["metrics", "--from", str(snap), "--format", "prom"]) == 0
    assert "interp_instructions_retired" in capsys.readouterr().out


def test_cli_metrics_from_missing_file_is_clean(capsys):
    import pytest

    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "--from", "/no/such/snapshot.json"])
    message = str(excinfo.value)
    assert message.startswith("error: cannot read metrics file")
    assert "Traceback" not in message


def test_cli_trace_from_corrupt_file_is_clean(tmp_path):
    import pytest

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--from", str(bad)])
    assert "not valid JSON" in str(excinfo.value)
    not_a_dict = tmp_path / "list.json"
    not_a_dict.write_text("[1, 2]")
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "--from", str(not_a_dict)])
    assert "not a metrics snapshot" in str(excinfo.value)


def test_cli_trace_from_saved_snapshot(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    assert main(["trace", "dwt53", "--no-cache",
                 "--metrics-out", str(snap)]) == 0
    capsys.readouterr()
    assert main(["trace", "--from", str(snap)]) == 0
    assert "evaluate (workload=dwt53)" in capsys.readouterr().out
    # chrome needs the live pipeline for its simulated-cycle tracks
    assert main(["trace", "--from", str(snap), "--format", "chrome"]) == 1
    assert "needs a live run" in capsys.readouterr().err


def test_cli_report_diff_missing_snapshot_is_clean(tmp_path):
    import pytest

    with pytest.raises(SystemExit) as excinfo:
        main(["report", "diff", str(tmp_path / "a.json"),
              str(tmp_path / "b.json")])
    assert str(excinfo.value).startswith("error: cannot read snapshot")


def test_cli_has_no_live_view_flags_or_top_command(capsys):
    import re

    import pytest

    # evaluate's flags are exactly the sweep, cache, metrics and
    # resilience knobs: none picks a pool backend or serves live progress
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--help"])
    assert excinfo.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {
        "--cache-dir", "--drain-timeout", "--events-out", "--fail-fast",
        "--fault-plan", "--help", "--jobs", "--journal-dir",
        "--max-consecutive-failures", "--max-total-failures", "--metrics",
        "--metrics-out", "--no-cache", "--resume", "--retries", "--run-id",
        "--timeline-out", "--timeout",
    }
    with pytest.raises(SystemExit) as excinfo:
        main(["top", "progress.json"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'top'" in capsys.readouterr().err


def test_cli_global_log_level(capsys):
    import logging

    assert main(["--log-level", "DEBUG", "list"]) == 0
    assert logging.getLogger("repro").level == logging.DEBUG
    assert main(["--log-level", "nope", "list"]) == 2
    assert "unknown log level" in capsys.readouterr().err
    main(["--log-level", "WARNING", "list"])  # restore the default
