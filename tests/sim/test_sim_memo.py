"""Simulation memo: identity and sharing.

The memo must be invisible in the numbers — memoized, cold, parallel and
cache-served runs all produce byte-identical results — and visible only
in the work: three strategies per workload share one calibration, one
path-cost table and one schedule pool, and a pipeline over an in-memory
profile that another configuration already simulated reuses every
product its configuration slice shares.
"""

import gc
import pickle
import weakref
from collections import Counter

import pytest

import repro.pipeline as pipeline_module
from repro import obs, workloads
from repro.accel.cgra import CGRAScheduler
from repro.accel.hls import HLSEstimator
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
    EnergyConfig,
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
    # the analysis and the memory, host, energy and census slices did not
    # change: all served
    for table in ("analysis", "calibration", "pathcosts", "baseline",
                  "census", "exec_fraction", "hls"):
        assert misses.value(table=table) == 0
    # the frames are shared, but the CGRA slice changed
    assert misses.value(table="schedule") >= 1
    assert misses.value(table="braid_schedule") == 1
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
    ("costly-frontend", SystemConfig(
        energy=EnergyConfig(host_frontend_pj=40.0),
    )),
)


def _slice_rows(config, memo=None, names=SUBSET):
    pipe = PipelineOptions(config=config, no_cache=True).build_pipeline()
    if memo is not None:
        pipe.simulator.memo = memo
    return [_flatten(pipe.evaluate(w)) for w in _suite(names)]


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


#: braids of several paths: 164.gzip and 186.crafty compose constituent
#: recurrence summaries, fft-2d is bounded by its own recurrence, and
#: swaptions has the largest braid frame
SWEEP_SUBSET = ["164.gzip", "186.crafty", "fft-2d", "swaptions"]


def _count_calls(monkeypatch, owner, name, key):
    """Count calls of ``owner.name`` by ``key(*args)``."""
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sweep_analyses_each_profile_once(fresh_profiles, monkeypatch):
    points = [config for name, config in SLICE_POINTS
              if name in ("default", "small-cgra", "narrow-host",
                          "small-memory")]
    assert len(points) == 4
    # the reference: fresh profiles for every point, memo off
    with monkeypatch.context() as m:
        m.setattr(pipeline_module, "profile_workload",
                  lambda w, artifact_cache=None:
                  profile_workload(w, use_cache=False))
        reference = [_slice_rows(config, RecomputeMemo(), SWEEP_SUBSET)
                     for config in points]
    clear_profile_cache()

    frames = _count_calls(
        monkeypatch, pipeline_module, "build_frame",
        lambda region: (region.function.name, region.kind))
    schedules = _count_calls(
        monkeypatch, CGRAScheduler, "schedule",
        lambda sched, frame, loop_carried=None: (
            id(frame), repr(sched.config), sched.load_latency,
            sched.store_latency, loop_carried is not None))
    estimates = _count_calls(
        monkeypatch, HLSEstimator, "estimate",
        lambda hls, frame: id(frame))
    rows = [_slice_rows(config, names=SWEEP_SUBSET) for config in points]
    assert rows == reference

    # each profile is framed once, whatever the number of points
    suite = _suite(SWEEP_SUBSET)
    assert frames == Counter({
        (profile_workload(w).function.name, kind): 1
        for w in suite for kind in ("bl-path", "braid")
    })
    braid_frames = [profile_workload(w).memo_table["analysis", None][3]
                    for w in suite]
    # each frame is scheduled once per (CGRA, latency) slice: narrow-host
    # shares the default CGRA and memory, so a frame has at most three
    # simulator slices, and a braid frame two default-latency schedules
    assert set(schedules.values()) == {1}
    assert len(schedules) <= (3 * 2 + 2) * len(braid_frames)
    # each braid frame is estimated once
    assert estimates == Counter({id(frame): 1 for frame in braid_frames})
    # and the slice composes constituent summaries
    assert any(("constituents", None) in frame.memo_table
               for frame in braid_frames)


def test_released_profile_is_freed_without_the_cycle_collector(
        fresh_profiles):
    # no table entry refers back to the object it lives on, so dropping
    # the last reference to a profile frees it, its tables and the
    # analysis at once, not at some later full collection
    w = workloads.get("186.crafty")
    gc.collect()
    gc.disable()
    try:
        for config in (None, SLICE_POINTS[1][1]):
            PipelineOptions(config=config, no_cache=True).build_pipeline(
            ).evaluate(w)
        pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
        analysis = pipe.analyse(w)
        # every analysis of the profile shares its frames
        assert pipe.analyse(w).braid_frame is analysis.braid_frame
        profiled = analysis.profiled
        assert profiled.memo_table and profiled.paths.memo_table
        assert analysis.braid_frame.memo_table
        refs = [weakref.ref(obj) for obj in (
            profiled, profiled.paths, profiled.trace, analysis,
            analysis.path_frame, analysis.braid_frame)]
        del pipe, analysis, profiled
        clear_profile_cache()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


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
