"""Simulation memo: identity and sharing.

The memo must be invisible in the numbers — memoized, cold, parallel and
cache-served runs all produce byte-identical results — and visible only
in the work: three strategies per workload share one calibration, one
path-cost table and one schedule pool, and a pipeline over an in-memory
profile that another configuration already simulated reuses every
product its configuration slice shares.
"""

import pickle

import pytest

from repro import obs, workloads
from repro.artifacts import ArtifactCache
from repro.frames import build_frame
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import rank_paths
from repro.regions import path_to_region
from repro.sim import OffloadSimulator, SimulationMemo
from repro.sim.config import (
    CacheConfig,
    CGRAConfig,
    HostConfig,
    MemoryHierarchyConfig,
    OffloadConfig,
    SystemConfig,
)
from repro.workloads import profile_workload
from repro.workloads.base import clear_profile_cache
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


@pytest.fixture
def fresh_profiles():
    """No in-memory profile, hence no memo table, survives from earlier
    tests into this one."""
    clear_profile_cache()
    yield
    clear_profile_cache()


class _Input:
    """The smallest memo input: an object with a memo table."""

    def __init__(self, value):
        self.value = value
        self.memo_table = {}


# -- memo unit behaviour ----------------------------------------------------


def test_content_memoizes_and_counts():
    memo = SimulationMemo()
    trace = _Input(0)
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
    # entries live on their input, so identity is the guard
    memo = SimulationMemo()
    a, b = _Input(1), _Input(1)  # equal values, distinct identities
    assert memo.get("rle", a, None, lambda: "A") == "A"
    assert memo.get("rle", a, None, lambda: "B") == "A"
    assert memo.get("rle", b, None, lambda: "B") == "B"


# -- simulator-level byte-identity -----------------------------------------


def _profiled(name):
    return profile_workload(workloads.get(name), use_cache=False)


def _cold_simulator():
    """The memo-off reference: every lookup recomputes."""
    sim = OffloadSimulator()
    sim.memo = RecomputeMemo()
    return sim


def test_memoized_matches_cold_calibration_and_costs():
    profiled = _profiled(SUBSET[0])
    memo_sim = OffloadSimulator()

    cal_m = memo_sim.calibrate(profiled.trace)
    cal_c = _cold_simulator().calibrate(profiled.trace)
    assert pickle.dumps(cal_m) == pickle.dumps(cal_c)
    # a second memoized call, from any simulator, returns the identical
    # record: it lives on the trace
    assert memo_sim.calibrate(profiled.trace) is cal_m
    assert OffloadSimulator().calibrate(profiled.trace) is cal_m

    costs_m = memo_sim.path_costs(profiled.paths, cal_m.host_load_latency)
    costs_c = _cold_simulator().path_costs(
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
        b = _cold_simulator().simulate_offload(
            profiled.workload.name, profiled.paths, frame, predictor,
            profiled.trace,
        )
        assert _outcome_fields(a) == _outcome_fields(b)


def test_three_strategies_share_sub_simulations(fresh_profiles):
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


def test_cgra_only_config_change_reuses_host_side_products(fresh_profiles):
    w = workloads.get(SUBSET[0])
    small_cgra = SystemConfig(
        cgra=CGRAConfig(rows=8, cols=4, memory_ports=2, issue_width=4)
    )
    first = PipelineOptions(no_cache=True).build_pipeline()
    second = PipelineOptions(config=small_cgra, no_cache=True).build_pipeline()
    with obs.scoped() as reg:
        first.evaluate(w)
    misses = reg.counter("simcache.misses")
    for table in ("calibration", "pathcosts", "census", "schedule"):
        assert misses.value(table=table) >= 1
    with obs.scoped() as reg:
        second.evaluate(w)
    misses = reg.counter("simcache.misses")
    # the memory, host and census slices did not change: all served
    for table in ("calibration", "pathcosts", "census"):
        assert misses.value(table=table) == 0
    # frames are rebuilt per pipeline, and the CGRA slice changed anyway
    assert misses.value(table="schedule") >= 1
    assert second.sim_memo.hits > 0


#: one point per config slice a memo key reads, each differing from the
#: default in that slice alone
SLICE_POINTS = (
    ("default", SystemConfig()),
    ("small-cgra", SystemConfig(
        cgra=CGRAConfig(rows=8, cols=4, memory_ports=2, issue_width=4),
    )),
    ("narrow-host", SystemConfig(host=HostConfig(
        fetch_width=2, issue_width=2, retire_width=2, rob_entries=48,
        int_alus=3, fp_units=1,
    ))),
    ("small-memory", SystemConfig(memory=MemoryHierarchyConfig(
        l1=CacheConfig(size_bytes=8 * 1024, associativity=2, latency=2),
        l2=CacheConfig(size_bytes=256 * 1024, associativity=8, latency=30),
    ))),
    ("unpipelined", SystemConfig(
        offload=OffloadConfig(pipelined_invocations=False),
    )),
    ("eager-abort", SystemConfig(
        offload=OffloadConfig(detect_failure_at_end=False),
    )),
)


def _slice_rows(config, memo=None):
    pipe = PipelineOptions(config=config, no_cache=True).build_pipeline()
    if memo is not None:
        pipe.simulator.memo = memo
    return [_flatten(pipe.evaluate(w)) for w in _suite(SUBSET)]


def test_sharing_never_crosses_a_config_slice(fresh_profiles):
    # the reference: memo off, over fresh profiles per point
    reference = {}
    for name, config in SLICE_POINTS:
        clear_profile_cache()
        reference[name] = _slice_rows(config, RecomputeMemo())
    # every point over shared in-memory profiles, in either order: a key
    # that missed a config field it reads would hand one point another's
    # product
    for points in (SLICE_POINTS, SLICE_POINTS[::-1]):
        clear_profile_cache()
        for name, config in points:
            assert _slice_rows(config) == reference[name], name


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
