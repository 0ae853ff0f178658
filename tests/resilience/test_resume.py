"""Crash-safe sweeps end to end: kill, resume, drain, trip.

The acceptance contract of the resilience tentpole:

* a sweep hard-killed mid-run (``os._exit`` at the ``journal.crash``
  site, torn record and all) resumes to output *byte-identical* to an
  uninterrupted run — evaluation records, semantic metrics and the
  attribution ledger — on both pool backends, without re-executing the
  workloads that already completed;
* SIGINT drains a pooled sweep within the drain deadline, exits with
  :data:`EXIT_DRAINED` and prints a resume command that works;
* the sweep-level circuit breaker aborts a doomed suite, journaling
  the abort and marking outstanding work ``aborted``;
* every exit path — including ``KeyboardInterrupt`` — closes the pool
  and restores the caller's ambient fault injector.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import obs
from repro.exec import SerialPool
from repro.obs import export
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline, evaluate_suite
from repro.resilience import faults as _faults
from repro.resilience.journal import JournalError, RunJournal
from repro.resilience.runner import (
    FailurePolicy,
    WorkloadFailure,
    run_failsafe,
)
from repro.resilience.shutdown import (
    EXIT_DRAINED,
    DrainController,
    SweepDrained,
)
from repro.workloads import get
from repro.workloads.base import clear_profile_cache

from tests.test_pools import FAST, JOBS, SUBSET, _flatten

SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), ".."))


def _suite(names=SUBSET):
    return [get(n) for n in names]


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _events(journal_dir, run_id):
    path = os.path.join(str(journal_dir), run_id + ".jsonl")
    events = []
    with open(path, "rb") as fh:
        for line in fh.read().splitlines():
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                pass  # torn tail
    return events


def _after_resume(events):
    idx = max(i for i, e in enumerate(events) if e["event"] == "run_resumed")
    return events[idx + 1:]


# -- kill + resume byte-identity (the acceptance chaos scenario) -------------

_CRASH_SCRIPT = """\
import sys
from repro import obs
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.resilience.faults import SITE_JOURNAL_CRASH, FaultPlan, FaultSpec
from repro.workloads import get

jobs, journal_dir = int(sys.argv[1]), sys.argv[2]
names = sys.argv[3].split(",")
obs.enable(reset=True)
# the second `completed` append hard-kills the driver, leaving 7 bytes
# of the record behind — the torn-tail case resume must survive
plan = FaultPlan(seed=5, specs=(
    FaultSpec(site=SITE_JOURNAL_CRASH, key="completed", after=1,
              payload={"exit_code": 23, "torn_bytes": 7}),
))
opts = PipelineOptions(no_cache=True, jobs=jobs, retries=1,
                       journal_dir=journal_dir, run_id="chaos",
                       fault_plan=plan)
NeedlePipeline(options=opts).evaluate_all([get(n) for n in names])
sys.exit(99)  # unreachable: the journal.crash site must fire first
"""


def _clean_sweep(pool):
    """(flattened rows, semantic-metrics JSON) for an uninterrupted run."""
    clear_profile_cache()
    obs.enable(reset=True)
    opts = PipelineOptions(no_cache=True, jobs=JOBS[pool], retries=1)
    rows = NeedlePipeline(options=opts).evaluate_all(_suite())
    semantic = export.semantic_json(None)
    obs.disable()
    obs.registry().clear()
    return [_flatten(r) for r in rows], semantic


@pytest.mark.chaos
@pytest.mark.parametrize("pool", ["serial", "process"])
def test_kill_and_resume_is_bitwise_identical(pool, tmp_path):
    clean_rows, clean_semantic = _clean_sweep(pool)

    script = tmp_path / "crash.py"
    script.write_text(_CRASH_SCRIPT)
    journal_dir = tmp_path / "journal"
    # output goes to files, not pipes: the os._exit kill orphans any
    # pool workers, which would hold a pipe open and stall the test
    with open(tmp_path / "crash.err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(script), str(JOBS[pool]), str(journal_dir),
             ",".join(SUBSET)],
            env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=300)
        finally:
            try:  # reap pool workers orphaned by the driver kill
                os.killpg(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
    assert rc == 23, (tmp_path / "crash.err").read_text()

    # exactly one completed workload was durable before the kill, and
    # the partial second record is detected as torn
    wreck = RunJournal(str(journal_dir), "chaos").replay(truncate=False)
    assert len(wreck.completed) == 1
    assert wreck.torn_records == 1
    survivor = next(iter(wreck.completed))

    # resume in-process, without the fault plan (the fingerprint pins
    # *what* the sweep computes, not how it was killed)
    clear_profile_cache()
    obs.enable(reset=True)
    opts = PipelineOptions(no_cache=True, jobs=JOBS[pool], retries=1,
                           journal_dir=str(journal_dir), resume="chaos")
    rows = NeedlePipeline(options=opts).evaluate_all(_suite())
    semantic = export.semantic_json(None)
    resumed = obs.registry().get("resilience.resumed_workloads")
    assert resumed is not None
    assert sum(v for _k, v in resumed.series()) == 1
    obs.disable()
    obs.registry().clear()

    assert [_flatten(r) for r in rows] == clean_rows
    assert semantic == clean_semantic

    events = _events(journal_dir, "chaos")
    marker = [e for e in events if e["event"] == "run_resumed"]
    assert len(marker) == 1
    assert marker[0]["completed"] == 1
    assert marker[0]["torn_records"] == 1
    completed = [e["workload"] for e in events if e["event"] == "completed"]
    assert sorted(completed) == sorted(SUBSET)  # each exactly once overall
    tail = _after_resume(events)
    started = [e["workload"] for e in tail if e["event"] == "attempt_started"]
    # the durable workload was restored, not re-executed
    assert sorted(started) == sorted(set(SUBSET) - {survivor})
    finished = [e for e in tail if e["event"] == "run_finished"]
    assert len(finished) == 1
    assert finished[0]["completed"] == 2
    assert finished[0]["quarantined"] == 0


# -- SIGINT drain ------------------------------------------------------------


@pytest.mark.chaos
def test_sigint_drains_within_deadline_and_resume_command_works(tmp_path):
    journal_dir = tmp_path / "journal"
    plan_path = tmp_path / "hang.json"
    plan_path.write_text(json.dumps({
        "seed": 3,
        "specs": [{"site": "worker.hang", "key": "470.lbm", "times": -1,
                   "payload": {"seconds": 60}}],
    }))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "evaluate", ",".join(SUBSET),
         "--no-cache", "--jobs", "2",
         "--journal-dir", str(journal_dir), "--run-id", "drain1",
         "--drain-timeout", "2", "--retries", "0",
         "--fault-plan", str(plan_path)],
        env=_subprocess_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        # wait until the two healthy workloads are journaled (the third
        # hangs in its worker), then interrupt the sweep
        journal = os.path.join(str(journal_dir), "drain1.jsonl")
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            try:
                done = sum(
                    1 for e in _events(journal_dir, "drain1")
                    if e["event"] == "completed")
            except OSError:
                done = 0
            if done >= 2 and os.path.exists(journal):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        assert proc.poll() is None, proc.communicate()[1]
        signalled = time.monotonic()
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
        drained_in = time.monotonic() - signalled
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == EXIT_DRAINED, stderr
    # the 2s drain deadline was honoured (generous slack for teardown)
    assert drained_in < 30
    assert "sweep interrupted" in stderr
    assert "resume with:" in stderr
    assert "--resume drain1" in stderr
    assert "--journal-dir %s" % journal_dir in stderr

    events = _events(journal_dir, "drain1")
    aborts = [e for e in events if e["event"] == "aborted"]
    assert aborts and aborts[-1]["reason"] == "drain"
    assert aborts[-1]["outstanding"] == ["470.lbm"]

    # the printed resume command works: run it plan-free and the hung
    # workload completes while the journaled two are restored
    rows = evaluate_suite(options=PipelineOptions(
        no_cache=True, journal_dir=str(journal_dir), resume="drain1"))
    assert [r.name for r in rows] == SUBSET
    assert not any(isinstance(r, WorkloadFailure) for r in rows)
    tail = _after_resume(_events(journal_dir, "drain1"))
    started = [e["workload"] for e in tail if e["event"] == "attempt_started"]
    assert started == ["470.lbm"]


# -- circuit breaker ---------------------------------------------------------


def _boom(item, plan, attempt):
    raise ValueError("boom:%s" % item)


def test_circuit_breaker_trips_on_total_failures(tmp_path):
    obs.enable(reset=True)
    events = []
    try:
        rows = run_failsafe(
            _boom, ["a", "b", "c", "d"], pool=SerialPool(),
            policy=FailurePolicy(retries=0, max_total_failures=2, **FAST),
            on_event=lambda event, key, **data: events.append(
                (event, key, data)),
        )
        trips = obs.registry().get("resilience.circuit_breaker_trips")
        assert trips is not None
        assert sum(v for _k, v in trips.series()) == 1
    finally:
        obs.disable()
        obs.registry().clear()

    assert all(isinstance(r, WorkloadFailure) for r in rows)
    assert [r.kind for r in rows] == [
        "exception", "exception", "aborted", "aborted"]
    assert {r.error_type for r in rows[2:]} == {"CircuitBreaker"}
    assert rows[2].error == "max_total_failures=2 reached"
    opened = [e for e in events if e[0] == "circuit_open"]
    assert len(opened) == 1
    assert opened[0][2]["reason"] == "max_total_failures=2 reached"
    assert opened[0][2]["outstanding"] == ["c", "d"]


def _flaky_alternating(item, plan, attempt):
    if attempt == 0 and item in ("a", "c"):
        raise ValueError("first attempt fails")
    return "ok:%s" % item


def test_success_resets_the_consecutive_failure_streak():
    rows = run_failsafe(
        _flaky_alternating, ["a", "b", "c", "d"], pool=SerialPool(),
        policy=FailurePolicy(retries=1, max_consecutive_failures=2, **FAST),
    )
    # two failures happen, but never back to back: no trip
    assert rows == ["ok:a", "ok:b", "ok:c", "ok:d"]


def test_circuit_breaker_trips_on_consecutive_failures():
    rows = run_failsafe(
        _boom, ["a", "b"], pool=SerialPool(),
        policy=FailurePolicy(retries=10, max_consecutive_failures=3, **FAST),
    )
    assert all(isinstance(r, WorkloadFailure) for r in rows)
    assert {r.kind for r in rows} == {"aborted"}
    assert sum(r.attempts for r in rows) == 3  # stopped at the third charge


def test_journaled_sweep_records_a_circuit_abort(tmp_path):
    plan = _faults.FaultPlan(seed=9, specs=(
        _faults.FaultSpec(site=_faults.SITE_WORKER_EXCEPTION, key="164.gzip",
                          times=-1),
    ))
    opts = PipelineOptions(
        no_cache=True, journal_dir=str(tmp_path), run_id="trip",
        fault_plan=plan, retries=0, max_total_failures=1)
    rows = NeedlePipeline(options=opts).evaluate_all(
        _suite(["164.gzip", "470.lbm"]))
    assert isinstance(rows[0], WorkloadFailure) and rows[0].kind == "exception"
    assert isinstance(rows[1], WorkloadFailure) and rows[1].kind == "aborted"
    events = _events(tmp_path, "trip")
    aborted = [e for e in events if e["event"] == "aborted"]
    assert aborted and "max_total_failures=1" in aborted[0]["reason"]
    assert aborted[0]["outstanding"] == ["470.lbm"]


# -- drain controller (no signals involved) ----------------------------------


def test_drain_request_mid_sweep_raises_sweep_drained():
    drain = DrainController(timeout=5)

    def task(item, plan, attempt):
        if item == "a" and attempt == 0:
            drain.request()
            raise ValueError("fail and back off")
        return "ok:%s" % item

    obs.enable(reset=True)
    try:
        with pytest.raises(SweepDrained) as excinfo:
            run_failsafe(
                task, ["a", "b", "c"], pool=SerialPool(),
                policy=FailurePolicy(retries=3, **FAST), drain=drain)
        gauge = obs.registry().get("resilience.drain_seconds")
        assert gauge is not None
    finally:
        obs.disable()
        obs.registry().clear()

    exc = excinfo.value
    assert isinstance(exc, KeyboardInterrupt)  # unknowing callers see ^C
    assert exc.outstanding == ["a"]  # backed off, never resubmitted
    assert exc.completed == 2  # b and c were already in flight: drained
    assert exc.drain_seconds >= 0.0


def test_drain_requested_before_start_stops_everything():
    drain = DrainController(timeout=0.5)
    drain.request(signal.SIGTERM)
    with pytest.raises(SweepDrained) as excinfo:
        run_failsafe(
            lambda item, plan, attempt: "ok", ["a", "b"], pool=SerialPool(),
            drain=drain)
    assert excinfo.value.outstanding == ["a", "b"]
    assert excinfo.value.completed == 0
    assert drain.signum == signal.SIGTERM


def test_resume_command_needs_a_run_id():
    assert SweepDrained().resume_command() is None
    exc = SweepDrained(outstanding=["x"], run_id="r7", journal_dir="/j")
    assert exc.resume_command() == \
        "python -m repro evaluate --resume r7 --journal-dir /j"
    assert EXIT_DRAINED == 75


# -- teardown on every exit path (KeyboardInterrupt included) ----------------


class _ProbePool(SerialPool):
    """Records whether the runner closed it, and how."""

    def __init__(self):
        super().__init__(jobs=1)
        self.closed = False
        self.closed_graceful = None

    def close(self, graceful=True):
        self.closed = True
        self.closed_graceful = graceful
        super().close(graceful)


def test_keyboard_interrupt_in_task_closes_pool_and_restores_faults():
    pool = _ProbePool()

    def task(item, plan, attempt):
        # leak an injector install, as interrupted task code might
        _faults.install(_faults.FaultPlan(seed=99))
        raise KeyboardInterrupt

    assert _faults.active() is None
    with pytest.raises(KeyboardInterrupt):
        run_failsafe(task, ["a", "b"], pool=pool)
    assert pool.closed
    assert pool.closed_graceful is False  # work was still pending
    assert _faults.active() is None  # ambient injector restored


class _InterruptedPool(_ProbePool):
    """A backend whose wait is interrupted (Ctrl-C inside the pool)."""

    def wait(self, timeout=None):
        raise KeyboardInterrupt


def test_keyboard_interrupt_in_pool_wait_still_closes_the_pool():
    pool = _InterruptedPool()
    with pytest.raises(KeyboardInterrupt):
        run_failsafe(lambda item, plan, attempt: "ok", ["a"], pool=pool)
    assert pool.closed


def test_ambient_injector_survives_a_clean_sweep():
    ambient = _faults.install(_faults.FaultPlan(seed=4))
    try:
        rows = run_failsafe(
            lambda item, plan, attempt: "ok:%s" % item, ["a"],
            pool=SerialPool())
        assert rows == ["ok:a"]
        assert _faults.active() is ambient
    finally:
        _faults.uninstall()


# -- pipeline journaling basics ----------------------------------------------


def test_journaled_sweep_writes_full_lifecycle(tmp_path):
    opts = PipelineOptions(no_cache=True, journal_dir=str(tmp_path),
                           run_id="r1")
    pipe = NeedlePipeline(options=opts)
    rows = pipe.evaluate_all(_suite(["dwt53", "164.gzip"]))
    assert [r.name for r in rows] == ["dwt53", "164.gzip"]

    events = _events(tmp_path, "r1")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_finished"
    assert [e["workload"] for e in events if e["event"] == "scheduled"] == \
        ["dwt53", "164.gzip"]
    assert sorted(
        e["workload"] for e in events if e["event"] == "completed"
    ) == ["164.gzip", "dwt53"]
    finished = events[-1]
    assert finished["completed"] == 2
    assert finished["quarantined"] == 0
    assert finished["records"] > 0
    assert finished["fsync_seconds"] >= 0.0
    # every completed record points at a loadable payload
    journal = RunJournal(str(tmp_path), "r1")
    for e in events:
        if e["event"] == "completed":
            row = journal.load_payload(e["payload"])
            assert row is not None and row[0].name == e["workload"]


def test_resume_restores_rows_without_reexecuting(tmp_path):
    names = ["dwt53", "164.gzip"]
    opts = PipelineOptions(no_cache=True, journal_dir=str(tmp_path),
                           run_id="r1")
    first = NeedlePipeline(options=opts).evaluate_all(_suite(names))

    obs.enable(reset=True)
    try:
        opts = PipelineOptions(no_cache=True, journal_dir=str(tmp_path),
                               resume="r1")
        again = NeedlePipeline(options=opts).evaluate_all(_suite(names))
        resumed = obs.registry().get("resilience.resumed_workloads")
        assert resumed is not None
        assert sum(v for _k, v in resumed.series()) == 2
    finally:
        obs.disable()
        obs.registry().clear()

    assert [_flatten(r) for r in again] == [_flatten(r) for r in first]
    tail = _after_resume(_events(tmp_path, "r1"))
    assert [e for e in tail if e["event"] == "attempt_started"] == []
    assert tail[-1]["event"] == "run_finished"
    assert tail[-1]["completed"] == 0  # nothing needed re-running


def test_resume_without_journal_dir_is_an_error(monkeypatch):
    monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
    opts = PipelineOptions(no_cache=True, resume="ghost")
    with pytest.raises(JournalError, match="journaling needs a directory"):
        NeedlePipeline(options=opts).evaluate_all(_suite(["dwt53"]))


def test_duplicate_run_id_is_an_error(tmp_path):
    opts = PipelineOptions(no_cache=True, journal_dir=str(tmp_path),
                           run_id="r1")
    NeedlePipeline(options=opts).evaluate_all(_suite(["dwt53"]))
    with pytest.raises(JournalError, match="already has a journal"):
        NeedlePipeline(options=opts).evaluate_all(_suite(["dwt53"]))


def test_journal_dir_env_enables_journaling(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
    opts = PipelineOptions(no_cache=True, run_id="envrun")
    NeedlePipeline(options=opts).evaluate_all(_suite(["dwt53"]))
    assert os.path.exists(os.path.join(str(tmp_path), "envrun.jsonl"))


def test_evaluate_suite_resume_replays_journaled_manifest(tmp_path):
    names = ["dwt53", "164.gzip"]
    first = evaluate_suite(names=names, options=PipelineOptions(
        no_cache=True, journal_dir=str(tmp_path), run_id="r1"))
    # names omitted: the journaled manifest decides what runs
    again = evaluate_suite(options=PipelineOptions(
        no_cache=True, journal_dir=str(tmp_path), resume="r1"))
    assert [r.name for r in again] == names
    assert [_flatten(r) for r in again] == [_flatten(r) for r in first]


# -- CLI surface -------------------------------------------------------------


def test_cli_run_id_without_journal_dir_exits_2(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
    rc = main(["evaluate", "dwt53", "--no-cache", "--run-id", "x"])
    assert rc == 2
    assert "journaling needs a directory" in capsys.readouterr().err


def test_cli_resume_rejects_an_explicit_workload(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="drop the workload argument"):
        main(["evaluate", "dwt53", "--no-cache",
              "--journal-dir", str(tmp_path), "--resume", "r1"])


def test_cli_resume_of_unknown_run_exits_with_message(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="no journal for run id"):
        main(["evaluate", "--no-cache", "--journal-dir", str(tmp_path),
              "--resume", "ghost"])
