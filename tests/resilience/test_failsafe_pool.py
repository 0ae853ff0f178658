"""Chaos scenarios: the fail-safe runner and the pipeline fan-out.

Toy-task tests exercise :func:`run_failsafe` directly (crash, hang,
exception, retry, quarantine, fail-fast, blame accuracy); suite-level
tests drive ``evaluate_suite`` under a seeded :class:`FaultPlan` and
check the acceptance scenario from the resilience issue — including
that rerunning the same seed reproduces the identical outcome.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import SerialPool
from repro.exec import worker as exec_worker
from repro.pipeline import evaluate_suite
from repro.resilience import faults
from repro.resilience.faults import (
    SITE_INTERP_RUN,
    SITE_WORKER_CRASH,
    SITE_WORKER_EXCEPTION,
    SITE_WORKER_HANG,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.runner import (
    FailurePolicy,
    WorkloadExecutionError,
    WorkloadFailure,
    run_failsafe,
    split_failures,
)
from repro.workloads.base import clear_profile_cache

pytestmark = pytest.mark.chaos

# toy fault sites, consulted by toy_task itself (worker-side, like the
# pipeline's worker.* sites but without the cost of a real evaluation)
TOY_CRASH = "toy.crash"
TOY_HANG = "toy.hang"
TOY_EXCEPTION = "toy.exception"

#: fast retry policy for toy tests — no point sleeping in CI
FAST = dict(backoff_base=0.01, backoff_cap=0.05)


def toy_task(item, plan, attempt):
    """Picklable pool task: consult the plan, then echo item and attempt."""
    if plan is not None:
        inj = faults.FaultInjector(plan, attempt=attempt)
        spec = inj.consult(TOY_CRASH, item)
        if spec is not None:
            # dies the way the current backend dies: os._exit in a
            # process worker, an inline WorkerCrashed everywhere else
            exec_worker.crash(int(spec.payload.get("exit_code", 7)))
        if exec_worker.preemptive():
            spec = inj.consult(TOY_HANG, item)
            if spec is not None:
                time.sleep(float(spec.payload.get("seconds", 30.0)))
        spec = inj.consult(TOY_EXCEPTION, item)
        if spec is not None:
            raise ValueError("boom:%s" % item)
    return "ok:%s:%d" % (item, attempt)


# -- run_failsafe unit scenarios -----------------------------------------------


def test_all_healthy_returns_in_item_order():
    rows = run_failsafe(toy_task, ["a", "b", "c"], jobs=2)
    assert rows == ["ok:a:0", "ok:b:0", "ok:c:0"]


def test_exception_on_first_attempt_recovers_on_retry():
    plan = FaultPlan(specs=(
        FaultSpec(site=TOY_EXCEPTION, key="b", times=-1, attempts=(0,)),
    ))
    rows = run_failsafe(
        toy_task, ["a", "b"], jobs=2,
        policy=FailurePolicy(retries=2, **FAST), plan=plan,
    )
    assert rows == ["ok:a:0", "ok:b:1"]


def test_persistent_exception_quarantines_with_cause_attached():
    plan = FaultPlan(specs=(FaultSpec(site=TOY_EXCEPTION, key="b", times=-1),))
    rows = run_failsafe(
        toy_task, ["a", "b", "c"], jobs=2,
        policy=FailurePolicy(retries=1, **FAST), plan=plan,
    )
    good, bad = split_failures(rows)
    assert good == ["ok:a:0", "ok:c:0"]
    [f] = bad
    assert rows[1] is f
    assert (f.workload, f.kind, f.attempts) == ("b", "exception", 2)
    assert f.error_type == "ValueError" and "boom:b" in f.error
    assert f.name == "b" and f.ok is False


def test_hard_crash_quarantines_without_charging_neighbours():
    plan = FaultPlan(specs=(FaultSpec(site=TOY_CRASH, key="b", times=-1),))
    rows = run_failsafe(
        toy_task, ["a", "b", "c", "d"], jobs=2,
        policy=FailurePolicy(retries=1, **FAST), plan=plan,
    )
    # neighbours whose futures were poisoned by BrokenProcessPool are
    # rerun uncharged: their attempt counters stay at 0
    assert rows[0] == "ok:a:0" and rows[2] == "ok:c:0" and rows[3] == "ok:d:0"
    assert isinstance(rows[1], WorkloadFailure)
    assert (rows[1].kind, rows[1].attempts) == ("crash", 2)


def test_hang_times_out_and_quarantines():
    plan = FaultPlan(specs=(
        FaultSpec(site=TOY_HANG, key="b", times=-1,
                  payload={"seconds": 30.0}),
    ))
    t0 = time.monotonic()
    rows = run_failsafe(
        toy_task, ["a", "b", "c"], jobs=2,
        policy=FailurePolicy(timeout=0.5, retries=1, **FAST), plan=plan,
    )
    elapsed = time.monotonic() - t0
    assert rows[0] == "ok:a:0" and rows[2] == "ok:c:0"
    assert isinstance(rows[1], WorkloadFailure)
    assert (rows[1].kind, rows[1].attempts) == ("timeout", 2)
    assert elapsed < 20.0  # the 30 s hang never ran to completion


def test_failure_records_replay_identically():
    plan = FaultPlan(seed=9, specs=(
        FaultSpec(site=TOY_CRASH, key="b", times=-1),
        FaultSpec(site=TOY_EXCEPTION, key="d", times=-1),
    ))
    policy = FailurePolicy(retries=1, **FAST)
    first = run_failsafe(toy_task, ["a", "b", "c", "d"], jobs=3,
                         policy=policy, plan=plan)
    second = run_failsafe(toy_task, ["a", "b", "c", "d"], jobs=3,
                          policy=policy, plan=plan)
    assert first == second  # WorkloadFailure is a dataclass: deep equality


def test_fail_fast_raises_with_workload_attached():
    plan = FaultPlan(specs=(FaultSpec(site=TOY_EXCEPTION, key="b", times=-1),))
    with pytest.raises(WorkloadExecutionError) as ei:
        run_failsafe(
            toy_task, ["a", "b"], jobs=2,
            policy=FailurePolicy(retries=0, fail_fast=True), plan=plan,
        )
    assert ei.value.workload == "b"
    assert ei.value.kind == "exception"
    assert isinstance(ei.value.__cause__, ValueError)


def test_on_result_sees_successes_before_failures_abort_anything():
    seen = []
    plan = FaultPlan(specs=(FaultSpec(site=TOY_EXCEPTION, key="c", times=-1),))
    run_failsafe(
        toy_task, ["a", "b", "c"], jobs=2,
        policy=FailurePolicy(retries=0, **FAST), plan=plan,
        on_result=lambda item, res: seen.append((item, res)),
    )
    assert sorted(seen) == [("a", "ok:a:0"), ("b", "ok:b:0")]


def test_backoff_is_deterministic_bounded_and_seed_sensitive():
    p = FailurePolicy(backoff_base=0.1, backoff_cap=1.0, seed=3)
    vals = [p.backoff(k, "w") for k in (1, 2, 3, 10)]
    assert vals == [p.backoff(k, "w") for k in (1, 2, 3, 10)]
    for v in vals:
        assert 0.0 < v <= 1.0 * 1.25  # cap plus max jitter
    other = FailurePolicy(backoff_base=0.1, backoff_cap=1.0, seed=4)
    assert p.backoff(1, "w") != other.backoff(1, "w")


def _toy_records(pool):
    plan = FaultPlan(seed=9, specs=(
        FaultSpec(site=TOY_CRASH, key="b", times=-1),
        FaultSpec(site=TOY_EXCEPTION, key="d", times=-1),
    ))
    return run_failsafe(
        toy_task, ["a", "b", "c", "d"], jobs=2, pool=pool,
        policy=FailurePolicy(retries=1, **FAST), plan=plan,
    )


def test_failure_records_identical_across_pool_backends():
    # both backends normalise a dead worker to the same WorkerCrashed
    # error, so the full record set is deep-equal — not just equivalent
    serial = _toy_records(SerialPool())
    assert _toy_records(None) == serial  # warm worker processes
    good, bad = split_failures(serial)
    assert good == ["ok:a:0", "ok:c:0"]
    assert {f.workload for f in bad} == {"b", "d"}
    crash = serial[1]
    assert (crash.kind, crash.error_type, crash.error) == (
        "crash", "WorkerCrashed", "worker exited with code 7")


# -- pipeline / evaluate_suite scenarios ---------------------------------------

SUBSET = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


def test_suite_survives_crash_and_hang_and_replays_identically():
    # the acceptance scenario: one workload hard-kills its worker, a
    # second wedges; the sweep still returns evaluations for the healthy
    # pair plus structured failure records — and the rerun is identical
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="164.gzip", times=-1),
        FaultSpec(site=SITE_WORKER_HANG, key="429.mcf", times=-1,
                  payload={"seconds": 30.0}),
    ))
    kwargs = dict(names=SUBSET, jobs=4, timeout=2.0, retries=1,
                  fault_plan=plan)
    rows = dict(zip(SUBSET, evaluate_suite(**kwargs)))

    assert isinstance(rows["164.gzip"], WorkloadFailure)
    assert (rows["164.gzip"].kind, rows["164.gzip"].attempts) == ("crash", 2)
    assert isinstance(rows["429.mcf"], WorkloadFailure)
    assert (rows["429.mcf"].kind, rows["429.mcf"].attempts) == ("timeout", 2)
    for name in ("470.lbm", "dwt53"):
        assert not isinstance(rows[name], WorkloadFailure)
        assert rows[name].name == name

    replay = dict(zip(SUBSET, evaluate_suite(**kwargs)))
    for name in ("164.gzip", "429.mcf"):
        assert replay[name] == rows[name]


def test_worker_crash_limited_to_first_attempt_recovers():
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="dwt53", times=-1,
                  attempts=(0,)),
    ))
    rows = evaluate_suite(names=["dwt53", "470.lbm"], jobs=2, retries=1,
                          fault_plan=plan)
    assert all(not isinstance(r, WorkloadFailure) for r in rows)
    assert [r.name for r in rows] == ["dwt53", "470.lbm"]


def test_serial_path_retries_and_quarantines():
    # jobs unset -> serial execution; the ambient injector makes every
    # interpreter run raise, so the workload quarantines in place.  The
    # in-memory profile memo would let evaluation skip the interpreter
    # (a site that never runs is never consulted) — start cold.
    clear_profile_cache()
    plan = FaultPlan(specs=(FaultSpec(site=SITE_INTERP_RUN, times=-1),))
    rows = evaluate_suite(names=["dwt53"], retries=1, fault_plan=plan)
    [f] = rows
    assert isinstance(f, WorkloadFailure)
    assert (f.kind, f.attempts) == ("exception", 2)
    assert f.error_type == "FaultInjected"


def test_pipeline_fail_fast_names_the_workload():
    plan = FaultPlan(specs=(
        FaultSpec(site=SITE_WORKER_EXCEPTION, key="dwt53", times=-1),
    ))
    with pytest.raises(WorkloadExecutionError) as ei:
        evaluate_suite(names=["dwt53", "470.lbm"], jobs=2, retries=0,
                       fail_fast=True, fault_plan=plan)
    assert ei.value.workload == "dwt53"
