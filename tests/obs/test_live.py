"""`events.event_log`: the session that records one sweep to JSONL."""

import json

from repro.obs import events as ev


def _log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_telemetry_session_lifecycle(tmp_path):
    path = tmp_path / "events.jsonl"
    with ev.event_log(str(path), run_id="s1") as bus:
        assert ev.active() is bus
        ev.publish(ev.RUN_STARTED, "s1", run_id="s1", total=1, todo=1)
        ev.publish(ev.TASK_STARTED, "w", attempt=1)
        ev.publish(ev.TASK_FINISHED, "w", ok=True)
    assert ev.active() is None
    events = _log(path)
    assert [e["kind"] for e in events] == [
        "run_started", "task_started", "task_finished", "run_finished"]
    assert [e["seq"] for e in events] == [0, 1, 2, 3]
    assert events[-1]["key"] == "s1"
    assert events[-1]["data"] == {"status": "finished"}


def test_telemetry_session_marks_drain_and_abort(tmp_path):
    class FakeDrain(KeyboardInterrupt):
        pass

    for exc_type, status in ((FakeDrain, "drained"), (ValueError, "aborted")):
        path = tmp_path / ("%s.jsonl" % status)
        try:
            with ev.event_log(str(path), run_id="x"):
                raise exc_type("boom")
        except exc_type:
            pass
        (last,) = _log(path)
        assert last["kind"] == "run_finished"
        assert last["data"]["status"] == status
        assert ev.active() is None
