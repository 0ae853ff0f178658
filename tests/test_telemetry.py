"""The sweep event log end to end: the wall-clock-only invariant.

The contract: keeping an event log (``--events-out``) must not perturb
semantic output.  Evaluation records and semantic metric snapshots are
byte-identical with the log on or off, serial or pooled, healthy or
under an injected chaos plan — and the log itself is a gapless audit
trail: every task's start and finish, retries and quarantines, and on a
resumed sweep the workloads restored from the journal.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import events as ev
from repro.obs import export
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.resilience.faults import SITE_WORKER_CRASH, FaultPlan, FaultSpec
from repro.workloads import get
from repro.workloads.base import clear_profile_cache

from tests.test_pools import JOBS, SUBSET, _flatten


def _suite(names=SUBSET):
    return [get(n) for n in names]


def _sweep(pool, fault_plan=None, log_dir=None, **extra):
    """(flattened rows, semantic JSON) with the event log on or off.

    ``log_dir`` switches the log on, exactly as ``--events-out`` would.
    """
    clear_profile_cache()
    obs.enable(reset=True)
    kwargs = dict(no_cache=True, jobs=JOBS[pool], retries=1,
                  fault_plan=fault_plan)
    if log_dir is not None:
        kwargs.update(events_out=os.path.join(str(log_dir), "events.jsonl"))
    kwargs.update(extra)
    rows = NeedlePipeline(options=PipelineOptions(**kwargs)) \
        .evaluate_all(_suite())
    semantic = export.semantic_json(None)
    obs.disable()
    obs.registry().clear()
    return [_flatten(r) for r in rows], semantic


def _events(log_dir):
    path = os.path.join(str(log_dir), "events.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _kinds_by_workload(events):
    per = {name: [] for name in SUBSET}
    for e in events:
        if e["key"] in per:
            per[e["key"]].append(e["kind"])
    return per


# -- byte-identity, event log on vs off ---------------------------------------


@pytest.mark.parametrize("pool", ["serial", "process"])
def test_semantic_output_identical_with_telemetry_on(pool, tmp_path):
    base_rows, base_sem = _sweep(pool)
    live_rows, live_sem = _sweep(pool, log_dir=tmp_path)
    assert live_rows == base_rows
    assert live_sem == base_sem
    # the log actually ran, and closed on a clean finish
    last = _events(tmp_path)[-1]
    assert last["kind"] == "run_finished"
    assert last["data"]["status"] == "finished"


@pytest.mark.chaos
@pytest.mark.parametrize("pool", ["serial", "process"])
def test_semantic_output_identical_under_crash_plan(pool, tmp_path):
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="164.gzip", times=-1),
    ))
    base_rows, base_sem = _sweep(pool, fault_plan=plan)
    live_rows, live_sem = _sweep(pool, fault_plan=plan, log_dir=tmp_path)
    assert live_rows == base_rows
    assert live_sem == base_sem
    kinds = _kinds_by_workload(_events(tmp_path))["164.gzip"]
    assert "retry" in kinds and "quarantined" in kinds


# -- the event stream itself --------------------------------------------------


def test_pooled_sweep_emits_gapless_lifecycle(tmp_path):
    # with an artifact cache the forked workers do cache traffic of
    # their own; none of it may land in the driver's log out of sequence
    _sweep("process", log_dir=tmp_path, no_cache=False,
           cache_dir=str(tmp_path / "cache"))
    events = _events(tmp_path)
    assert [e["seq"] for e in events] == list(range(len(events)))
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_finished"
    for name, per in _kinds_by_workload(events).items():
        assert per == ["task_scheduled", "task_started", "task_finished"], name


def test_serial_and_pooled_sweeps_log_the_same_lifecycle(tmp_path):
    logs = {}
    for pool in JOBS:
        log_dir = tmp_path / pool
        log_dir.mkdir()
        _sweep(pool, log_dir=log_dir)
        logs[pool] = _kinds_by_workload(_events(log_dir))
    assert logs["serial"] == logs["process"]
    for per in logs["serial"].values():
        assert per.count("task_started") == 1


def test_sweep_leaves_no_ambient_bus_behind(tmp_path):
    assert ev.active() is None
    _sweep("serial", log_dir=tmp_path)
    assert ev.active() is None


# -- resumed sweeps log what the journal restored -----------------------------


def test_resumed_sweep_reports_cumulative_progress(tmp_path):
    """Journal-restored workloads are logged as ``run_resumed``.

    First pass: a journaled sweep in which one workload is quarantined
    by an always-crash plan (so the journal holds the other two).
    Second pass: resume without the plan, with the event log on — the
    two restored workloads are logged as resumed, and only the re-run
    one starts a task.
    """
    journal_dir = tmp_path / "journal"
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="470.lbm", times=-1),
    ))
    clear_profile_cache()
    first = PipelineOptions(no_cache=True, jobs=2, retries=0,
                            journal_dir=str(journal_dir), run_id="tele",
                            fault_plan=plan)
    NeedlePipeline(options=first).evaluate_all(_suite())

    clear_profile_cache()
    second = PipelineOptions(no_cache=True, jobs=2, retries=0,
                             journal_dir=str(journal_dir), resume="tele",
                             events_out=str(tmp_path / "events.jsonl"))
    rows = NeedlePipeline(options=second).evaluate_all(_suite())
    assert not any(hasattr(r, "kind") for r in rows)  # all healthy now

    events = _events(tmp_path)
    assert events[0]["data"]["total"] == len(SUBSET)
    resumed = sorted(e["key"] for e in events if e["kind"] == "run_resumed")
    assert resumed == ["164.gzip", "dwt53"]
    started = [e["key"] for e in events if e["kind"] == "task_started"]
    assert started == ["470.lbm"]
    assert events[-1]["data"]["status"] == "finished"
