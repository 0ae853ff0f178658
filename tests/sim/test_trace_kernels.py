"""Property tests: the run-length trace kernels vs the event reference.

The perf claim of the run-length kernels is only worth having if the
fast path is *bit-identical* to the reference — same predictor census,
same charge census, same OffloadOutcome floats.  These tests enforce
that equivalence from three angles: pure RLE round-trips, runs-vs-events
predictor and census evaluation over random traces (hypothesis), and
full outcomes of the event-by-event
:class:`~repro.sim.EventOracleSimulator` against production on a
profiled fixture and on real suite workloads, cleanly and under an
injected worker crash.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.accel.invocation import (
    HistoryPredictor,
    OraclePredictor,
    evaluate_predictor,
    evaluate_predictor_runs,
)
from repro.frames import build_frame
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import rank_paths
from repro.regions import path_to_region
from repro.resilience.faults import SITE_WORKER_CRASH, FaultPlan, FaultSpec
from repro.resilience.runner import WorkloadFailure
from repro.sim import (
    ChargeCensus,
    EventOracleSimulator,
    OffloadSimulator,
    census_from_events,
    census_from_segments,
    run_length_encode,
)
from repro.sim.trace_kernels import iter_segment_charges
from tests.conftest import RecomputeMemo

# traces built from runs: long stretches of one path id exercise the
# closed-form tail, short stutters exercise the explicit prefix
run_traces = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 40)), max_size=25
).map(lambda runs: [pid for pid, n in runs for _ in range(n)])
target_sets = st.sets(st.integers(0, 5))


# -- RLE view ---------------------------------------------------------------


@given(run_traces)
def test_rle_round_trip(trace):
    rle = run_length_encode(trace)
    assert rle.expand() == trace
    assert rle.n_events == len(trace)
    assert rle.n_runs <= rle.n_events
    # runs are maximal: no two adjacent runs share a path id
    for (a, _), (b, _) in zip(rle.runs, rle.runs[1:]):
        assert a != b
    if trace:
        assert 0.0 < rle.rle_ratio <= 1.0
    else:
        assert rle.rle_ratio == 1.0


@given(run_traces)
def test_rle_per_pid_stats(trace):
    stats = run_length_encode(trace).per_pid_run_stats()
    assert sum(events for _, events, _ in stats.values()) == len(trace)
    for pid, (n_runs, n_events, longest) in stats.items():
        assert trace.count(pid) == n_events
        assert 1 <= longest <= n_events
        assert n_runs <= n_events


# -- predictor evaluation: runs vs events ----------------------------------


def _predictors(targets, history_length):
    yield OraclePredictor(targets)
    yield HistoryPredictor(history_length=history_length)
    # a trigger-happy variant that invokes from the initial counter state
    yield HistoryPredictor(
        history_length=history_length, init_counter=3, invoke_threshold=2
    )


@settings(deadline=None)
@given(run_traces, target_sets, st.integers(1, 4))
def test_run_eval_matches_event_eval(trace, targets, history_length):
    for make in range(3):
        events_pred = list(_predictors(targets, history_length))[make]
        runs_pred = list(_predictors(targets, history_length))[make]
        ev = evaluate_predictor(trace, targets, events_pred, history_length)
        run_ev = evaluate_predictor_runs(
            run_length_encode(trace).runs, targets, runs_pred, history_length
        )
        assert run_ev.true_positives == ev.true_positives
        assert run_ev.false_positives == ev.false_positives
        assert run_ev.true_negatives == ev.true_negatives
        assert run_ev.false_negatives == ev.false_negatives
        assert run_ev.precision == ev.precision
        assert run_ev.recall == ev.recall
        # the segments expand to the exact per-event decision stream
        expanded = [
            (pid, invoke)
            for pid, invoke, length in run_ev.segments
            for _ in range(length)
        ]
        assert expanded == list(zip(trace, ev.decisions))
        # and segments are maximal (merged on emit)
        for (p1, i1, _), (p2, i2, _) in zip(run_ev.segments, run_ev.segments[1:]):
            assert (p1, i1) != (p2, i2)


@settings(deadline=None)
@given(run_traces, target_sets, st.booleans(), st.integers(1, 4))
def test_census_kernels_agree(trace, targets, pipelined, history_length):
    ev = evaluate_predictor(
        trace, targets, HistoryPredictor(history_length=history_length),
        history_length,
    )
    run_ev = evaluate_predictor_runs(
        run_length_encode(trace).runs, targets,
        HistoryPredictor(history_length=history_length), history_length,
    )
    slow = census_from_events(trace, ev.decisions, targets, pipelined)
    fast = census_from_segments(run_ev.segments, targets, pipelined)
    assert slow == fast
    # every event lands in exactly one charge class
    total = sum(
        sum(table.values())
        for table in (slow.run_starts, slow.pipelined, slow.failures, slow.host)
    )
    assert total == len(trace)
    assert slow.invocations == ev.invocations


@given(run_traces, target_sets)
def test_census_oracle_never_fails(trace, targets):
    ev = evaluate_predictor(trace, targets, OraclePredictor(targets))
    census = census_from_events(trace, ev.decisions, targets, True)
    assert census.failed == 0
    assert not census.failures


# -- three-way census: replay and fold checked separately -------------------


@settings(deadline=None)
@given(run_traces, target_sets, st.booleans(), st.integers(1, 4),
       st.integers(0, 2))
def test_census_three_way(trace, targets, pipelined, history_length, make):
    ev = evaluate_predictor(
        trace, targets, list(_predictors(targets, history_length))[make],
        history_length,
    )
    run_ev = evaluate_predictor_runs(
        run_length_encode(trace).runs, targets,
        list(_predictors(targets, history_length))[make], history_length,
    )
    # event replay + event fold, run replay + run fold, and run replay
    # expanded back into events + event fold must all agree
    slow = census_from_events(trace, ev.decisions, targets, pipelined)
    fast = census_from_segments(run_ev.segments, targets, pipelined)
    expanded = [
        (pid, invoke)
        for pid, invoke, length in run_ev.segments
        for _ in range(length)
    ]
    mixed = census_from_events(
        [pid for pid, _ in expanded], [invoke for _, invoke in expanded],
        targets, pipelined,
    )
    assert fast == slow
    assert mixed == slow


# -- empty traces and zero-length runs are guarded everywhere ---------------


def test_empty_trace_guards():
    rle = run_length_encode([])
    assert rle.n_runs == 0 and rle.n_events == 0
    assert rle.rle_ratio == 1.0
    assert rle.expand() == []
    assert rle.per_pid_run_stats() == {}


@pytest.mark.parametrize("pipelined", (False, True))
def test_empty_trace_array_kernels(pipelined):
    # the run replay and both census folds on an empty trace
    rle = run_length_encode([])
    for predictor in (OraclePredictor({1}), HistoryPredictor()):
        ev = evaluate_predictor_runs(rle.runs, {1}, predictor)
        assert (ev.true_positives, ev.false_positives,
                ev.true_negatives, ev.false_negatives) == (0, 0, 0, 0)
        assert ev.segments == []
    assert census_from_segments([], {1}, pipelined) == ChargeCensus()
    assert census_from_events([], [], {1}, pipelined) == ChargeCensus()


@pytest.mark.parametrize("pipelined", (False, True))
def test_zero_length_segments_charge_nothing(pipelined):
    segs = [(1, True, 0), (2, False, 0), (1, True, 0)]
    assert census_from_segments(segs, {1}, pipelined) == ChargeCensus()
    assert list(iter_segment_charges(segs, {1}, pipelined)) == []


# -- full simulator: the event oracle matches production --------------------


@pytest.mark.parametrize("memo", (False, True))
def test_kernel_modes_identical_on_fixture(profiled_anticorrelated, memo):
    m, fn, pp, ep = profiled_anticorrelated
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    production = OffloadSimulator()
    oracle = EventOracleSimulator()
    if not memo:
        production.memo = RecomputeMemo()
        oracle.memo = RecomputeMemo()
    for predictor in ("oracle", "history"):
        a = production.simulate_offload("anticorr", pp, frame, predictor)
        b = oracle.simulate_offload("anticorr", pp, frame, predictor)
        assert vars(a) == vars(b)


#: structurally diverse suite slice (same rationale as
#: tests/test_parallel_and_cache.py): int + fp, loop-heavy and branchy
SUITE_SLICE = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]

#: the first attempt of one workload dies the way its backend dies, so
#: production re-runs it (in a fresh process on the process pool)
CRASH_PLAN = FaultPlan(seed=13, specs=(
    FaultSpec(site=SITE_WORKER_CRASH, key="429.mcf", times=-1,
              attempts=(0,)),
))


def _flatten(ev):
    def fields(outcome):
        return None if outcome is None else vars(outcome).copy()

    return {
        "summary": vars(ev.summary).copy(),
        "path_oracle": fields(ev.path_oracle),
        "path_history": fields(ev.path_history),
        "braid": fields(ev.braid),
        "hls": fields(ev.hls),
        "braid_schedule": fields(ev.braid_schedule),
    }


@pytest.fixture(scope="module")
def oracle_rows():
    # memo off too: every strategy recomputes its sub-simulations
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    pipe.simulator = EventOracleSimulator(pipe.config)
    pipe.simulator.memo = RecomputeMemo()
    return [_flatten(pipe.evaluate(workloads.get(n))) for n in SUITE_SLICE]


def test_kernel_modes_identical_across_suite_slice(oracle_rows):
    # the slice's history predictor mispredicts, so failure charges
    # (abort, rollback, re-execution) are compared as well
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    rows = [pipe.evaluate(workloads.get(n)) for n in SUITE_SLICE]
    assert [_flatten(r) for r in rows] == oracle_rows


@pytest.mark.chaos
def test_array_kernels_identical_under_injected_faults(oracle_rows):
    # a worker crash on the first attempt forces run_failsafe to retry in
    # a fresh process; the retried rows must still match the event oracle
    rows = NeedlePipeline(options=PipelineOptions(
        no_cache=True, jobs=2, retries=1, fault_plan=CRASH_PLAN,
    )).evaluate_all([workloads.get(n) for n in SUITE_SLICE])
    assert not any(isinstance(r, WorkloadFailure) for r in rows)
    assert [_flatten(r) for r in rows] == oracle_rows
