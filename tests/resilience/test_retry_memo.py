"""Chaos scenarios for the simulation memo and trace kernels.

The retry contract of :func:`run_failsafe` meets the simulation memo
here: a workload whose first attempt dies must produce outcomes
byte-identical to a run nobody faulted.  Production must also match the
event-by-event :class:`~repro.sim.EventOracleSimulator` under seeded
fault plans, not just on sunny-day sweeps.
"""

from __future__ import annotations

import pytest

from repro import workloads
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline, evaluate_suite
from repro.resilience.faults import (
    SITE_WORKER_EXCEPTION,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.runner import WorkloadFailure
from repro.sim import EventOracleSimulator
from tests.conftest import RecomputeMemo

pytestmark = pytest.mark.chaos

SUBSET = ["dwt53", "470.lbm"]


def _outcome_fields(outcome):
    return None if outcome is None else vars(outcome).copy()


def _flatten(ev):
    return {
        "summary": vars(ev.summary).copy(),
        "path_oracle": _outcome_fields(ev.path_oracle),
        "path_history": _outcome_fields(ev.path_history),
        "braid": _outcome_fields(ev.braid),
        "hls": _outcome_fields(ev.hls),
        "braid_schedule": _outcome_fields(ev.braid_schedule),
    }


def test_retried_workload_with_memo_matches_clean_run(tmp_path):
    reference = [
        _flatten(ev)
        for ev in NeedlePipeline(
            options=PipelineOptions(no_cache=True)
        ).evaluate_all([workloads.get(n) for n in SUBSET])
    ]

    plan = FaultPlan(seed=23, specs=(
        FaultSpec(site=SITE_WORKER_EXCEPTION, key="dwt53", times=-1,
                  attempts=(0,)),
    ))
    rows = evaluate_suite(
        names=SUBSET, jobs=2, retries=1,
        cache_dir=str(tmp_path / "cache"), fault_plan=plan,
    )
    assert all(not isinstance(r, WorkloadFailure) for r in rows)
    assert [_flatten(ev) for ev in rows] == reference


def test_kernel_modes_agree_under_fault_plan():
    plan = FaultPlan(seed=31, specs=(
        FaultSpec(site=SITE_WORKER_EXCEPTION, key="470.lbm", times=-1,
                  attempts=(0,)),
    ))
    rle = evaluate_suite(options=PipelineOptions(
        jobs=2, no_cache=True, retries=1, fault_plan=plan,
    ), names=SUBSET)

    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    pipe.simulator = EventOracleSimulator(pipe.config)
    pipe.simulator.memo = RecomputeMemo()
    events = [pipe.evaluate(workloads.get(n)) for n in SUBSET]
    for a, b in zip(rle, events):
        assert not isinstance(a, WorkloadFailure)
        assert _flatten(a) == _flatten(b)
