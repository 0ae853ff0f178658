"""Cross-strategy simulation memo: identity and sharing.

The memo must be invisible in the numbers — memoized, cold, parallel and
cache-served runs all produce byte-identical results — and visible only
in the work: three strategies per workload share one calibration, one
path-cost table and one schedule pool.
"""

import pickle

from repro import obs, workloads
from repro.artifacts import ArtifactCache
from repro.frames import build_frame
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import rank_paths
from repro.regions import path_to_region
from repro.sim import OffloadSimulator, SimulationMemo
from repro.workloads import profile_workload
from tests.conftest import RecomputeMemo

SUBSET = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


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


def _suite(names):
    return [workloads.get(name) for name in names]


# -- memo unit behaviour ----------------------------------------------------


def test_content_memoizes_and_counts():
    memo = SimulationMemo()
    trace = object()
    calls = []
    assert memo.get("calibration", trace, "cfg",
                    lambda: calls.append(1) or 42) == 42
    assert memo.get("calibration", trace, "cfg",
                    lambda: calls.append(1) or 99) == 42
    assert calls == [1]
    assert memo.hits == 1 and memo.misses == 1
    # another config slice of the same input is its own entry
    assert memo.get("calibration", trace, "other", lambda: 7) == 7
    assert memo.misses == 2


def test_identity_guard_requires_same_object():
    memo = SimulationMemo()
    a, b = [1], [1]  # equal values, distinct identities
    assert memo.get("rle", a, None, lambda: "A") == "A"
    assert memo.get("rle", a, None, lambda: "B") == "A"
    assert memo.get("rle", b, None, lambda: "B") == "B"


# -- simulator-level byte-identity -----------------------------------------


def _profiled(name):
    return profile_workload(workloads.get(name), use_cache=False)


def test_memoized_matches_cold_calibration_and_costs():
    profiled = _profiled(SUBSET[0])
    memo_sim = OffloadSimulator()

    cal_m = memo_sim.calibrate(profiled.trace)
    # the cold reference: a fresh simulator (and memo) per call
    cal_c = OffloadSimulator().calibrate(profiled.trace)
    assert pickle.dumps(cal_m) == pickle.dumps(cal_c)
    # second memoized call returns the identical record
    assert memo_sim.calibrate(profiled.trace) is cal_m

    costs_m = memo_sim.path_costs(profiled.paths, cal_m.host_load_latency)
    costs_c = OffloadSimulator().path_costs(
        profiled.paths, cal_c.host_load_latency
    )
    assert pickle.dumps(costs_m) == pickle.dumps(costs_c)


def test_memoized_matches_cold_outcomes():
    profiled = _profiled(SUBSET[0])
    frame = build_frame(
        path_to_region(profiled.function, rank_paths(profiled.paths)[0])
    )
    memo_sim = OffloadSimulator()
    for predictor in ("oracle", "history"):
        a = memo_sim.simulate_offload(
            profiled.workload.name, profiled.paths, frame, predictor,
            profiled.trace,
        )
        b = OffloadSimulator().simulate_offload(
            profiled.workload.name, profiled.paths, frame, predictor,
            profiled.trace,
        )
        assert _outcome_fields(a) == _outcome_fields(b)


def test_three_strategies_share_sub_simulations():
    pipe = NeedlePipeline()
    with obs.scoped() as reg:
        pipe.evaluate(workloads.get(SUBSET[0]))
    memo = pipe.sim_memo
    assert memo is not None and memo.hits > 0
    hits = reg.counter("simcache.hits")
    # calibration and path costs computed once, reused by the other runs
    assert hits.value(table="calibration") >= 2
    assert hits.value(table="pathcosts") >= 1
    assert reg.counter("simcache.misses").value(table="calibration") == 1


def test_rle_ratio_gauge_published():
    pipe = NeedlePipeline()
    with obs.scoped() as reg:
        pipe.evaluate(workloads.get(SUBSET[0]))
    series = dict(reg.gauge("trace.rle_ratio").series())
    assert series  # at least one workload reported
    for _labels, ratio in series.items():
        assert 0.0 < ratio <= 1.0


# -- pipeline-level byte-identity across execution modes --------------------


def test_memo_serial_parallel_and_cached_are_byte_identical(tmp_path):
    suite = _suite(SUBSET)
    # memo off: every strategy recomputes its sub-simulations
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    pipe.simulator.memo = RecomputeMemo()
    reference = [_flatten(ev) for ev in pipe.evaluate_all(suite)]

    memo_serial = NeedlePipeline(
        options=PipelineOptions(no_cache=True)
    ).evaluate_all(suite)
    assert [_flatten(ev) for ev in memo_serial] == reference

    memo_parallel = NeedlePipeline(
        options=PipelineOptions(no_cache=True, jobs=4)
    ).evaluate_all(suite)
    assert [_flatten(ev) for ev in memo_parallel] == reference

    cache_dir = str(tmp_path / "cache")
    warm = NeedlePipeline(cache=ArtifactCache(cache_dir))
    assert [_flatten(ev) for ev in warm.evaluate_all(suite)] == reference
    # a fresh pipeline over the same cache is served from disk with
    # identical bytes
    served = NeedlePipeline(cache=ArtifactCache(cache_dir))
    assert [_flatten(ev) for ev in served.evaluate_all(suite)] == reference
    assert served.cache.hits > 0
