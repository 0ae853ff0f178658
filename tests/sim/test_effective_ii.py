"""Braid effective-II: per-braid recurrence summaries and their fallbacks.

The live constituents' recurrence summaries of a braid are composed once,
from one frame per braid block, and kept in the braid frame's table under
``("constituents", None)``; every configuration afterwards only prices
them.  A constituent whose block cannot be framed is cached as a
failure and still counted in ``sim.effective_ii_fallbacks`` on every
evaluation that meets it.  A braid whose own recurrence II is within its
resource II prices no constituent.
"""

from collections import Counter

import pytest

import repro.frames.frame as frame_module
from repro import obs, workloads
from repro.artifacts import PROFILE_KIND, ArtifactCache
from repro.frames.frame import FrameBuildError
from repro.options import PipelineOptions
from repro.profiling.ranking import RankedPath, count_ops
from repro.regions import path_to_region
from repro.sim import OffloadSimulator
from repro.sim.config import (
    CacheConfig,
    CGRAConfig,
    MemoryHierarchyConfig,
    SystemConfig,
)
from repro.workloads.base import clear_profile_cache, profile_workload

#: a braid of five constituent paths
WORKLOAD = "164.gzip"
#: a braid of two constituent paths whose recurrence II is within its
#: resource II
BOUNDED = "fft-2d"

#: the Table V system with a smaller fabric and a slower L2 — a different
#: CGRA slice and different rounded load/store latencies
SMALL = SystemConfig(
    memory=MemoryHierarchyConfig(
        l2=CacheConfig(size_bytes=256 * 1024, associativity=8, latency=30),
    ),
    cgra=CGRAConfig(rows=8, cols=4, memory_ports=2, issue_width=4),
)


@pytest.fixture(autouse=True)
def _fresh_profiles():
    clear_profile_cache()
    yield
    clear_profile_cache()


def _summaries(frame):
    """The constituent recurrence summaries the braid frame keeps, by
    path id."""
    return frame.memo_table.get(("constituents", None), {})


def _analysis(name=WORKLOAD):
    w = workloads.get(name)
    return PipelineOptions(no_cache=True).build_pipeline().analyse(w)


def _count_block_builds(monkeypatch, fail=None):
    """Count one-block frame builds per block where effective-II looks
    ``build_frame`` up; building block ``fail`` raises."""
    builds = Counter()
    original = frame_module.build_frame

    def build(region):
        if region.kind == "bl-path" and not region.source_paths:
            (block,) = region.blocks
            builds[block] += 1
            if block is fail:
                raise FrameBuildError("injected for block %s" % block.name)
        return original(region)

    monkeypatch.setattr(frame_module, "build_frame", build)
    return builds


def _record_braid_iis(monkeypatch):
    """Every braid effective-II the simulator computes, with its inputs."""
    calls = []
    original = OffloadSimulator._effective_ii

    def spy(self, frame, sched, profile, scheduler):
        result = original(self, frame, sched, profile, scheduler)
        if frame.region.kind == "braid":
            calls.append((result[0], frame, sched, profile, scheduler))
        return result

    monkeypatch.setattr(OffloadSimulator, "_effective_ii", spy)
    return calls


def _scheduled_ii(frame, sched, profile, scheduler, skip=()):
    """The effective II by list-scheduling every constituent frame."""
    weighted = total = 0
    for pid in frame.region.source_paths:
        freq = profile.counts.get(pid, 0)
        if freq <= 0 or pid in skip:
            continue
        blocks = profile.decode(pid)
        rp = RankedPath(path_id=pid, blocks=blocks, freq=freq,
                        ops=count_ops(blocks), weight=0, coverage=0.0)
        pframe = frame_module.build_frame(path_to_region(frame.region.function, rp))
        psched = scheduler.schedule(
            pframe, loop_carried=OffloadSimulator._loop_carried(pframe)
        )
        weighted += freq * psched.recurrence_ii
        total += freq
    return float(max(sched.resource_ii, weighted / total))


def test_failed_constituent_is_counted_on_every_evaluation(monkeypatch):
    analysis = _analysis()
    paths = {pid: analysis.profiled.paths.decode(pid)
             for pid in analysis.braid_frame.region.source_paths}
    # a block on some constituents but not all: theirs fail
    victim = next(
        block for block in analysis.braid_frame.region.blocks
        if 0 < sum(block in blocks for blocks in paths.values()) < len(paths)
    )
    failed = [pid for pid, blocks in paths.items() if victim in blocks]
    iis = _record_braid_iis(monkeypatch)
    builds = _count_block_builds(monkeypatch, fail=victim)
    w = workloads.get(WORKLOAD)
    with obs.scoped() as reg:
        first = PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
        second = PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    fallbacks = reg.counter("sim.effective_ii_fallbacks")
    assert fallbacks.value(error="FrameBuildError") == 2 * len(failed)
    assert builds[victim] == 1  # the failure is cached, not rebuilt
    assert first == second
    # the second evaluation reads the II from the shared frame's table
    assert len(iis) == 1
    for ii, frame, sched, profile, scheduler in iis:
        assert ii == _scheduled_ii(frame, sched, profile, scheduler,
                                   skip=failed)


def test_summaries_are_built_once_across_configs(monkeypatch):
    iis = _record_braid_iis(monkeypatch)
    builds = _count_block_builds(monkeypatch)
    w = workloads.get(WORKLOAD)
    PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    PipelineOptions(config=SMALL, no_cache=True).build_pipeline().evaluate(w)
    profile = profile_workload(w).paths
    region = iis[0][1].region
    live = [pid for pid in region.source_paths
            if profile.counts.get(pid, 0) > 0]
    assert len(live) >= 2
    # one frame per braid block, not one per constituent path
    assert builds == Counter({block: 1 for block in region.blocks})
    assert sorted(_summaries(iis[0][1])) == sorted(live)
    default_ii, small_ii = iis
    assert default_ii[4].load_latency != small_ii[4].load_latency
    for ii, frame, sched, prof, scheduler in iis:
        assert prof is profile
        assert ii == _scheduled_ii(frame, sched, prof, scheduler)


def test_bounded_braid_prices_no_constituent(monkeypatch):
    iis = _record_braid_iis(monkeypatch)
    builds = _count_block_builds(monkeypatch)
    w = workloads.get(BOUNDED)
    PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    PipelineOptions(config=SMALL, no_cache=True).build_pipeline().evaluate(w)
    assert not builds
    assert len(iis) == 2
    assert _summaries(iis[0][1]) == {}
    for ii, frame, sched, profile, scheduler in iis:
        assert len(frame.region.source_paths) >= 2
        assert sched.recurrence_ii <= sched.resource_ii
        assert ii == float(sched.resource_ii)
        assert ii == _scheduled_ii(frame, sched, profile, scheduler)


def test_summary_table_stays_out_of_the_pickled_profile(tmp_path):
    w = workloads.get(WORKLOAD)
    profiled = profile_workload(w)
    # put before any path is decoded: neither the decode memo nor a memo
    # table may move the bytes
    assert not profiled.paths._decoded
    key = profiled.artifact_key
    path = tmp_path / PROFILE_KIND / key[:2] / (key + ".pkl")
    cache = ArtifactCache(str(tmp_path))
    assert cache.put(PROFILE_KIND, key, profiled)
    before = path.read_bytes()

    # two configurations fill the trace's, the profile's and the frames'
    # tables, and decode paths
    PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    PipelineOptions(config=SMALL, no_cache=True).build_pipeline().evaluate(w)
    assert profile_workload(w) is profiled
    assert profiled.paths._decoded
    kinds = {kind for kind, _extra in profiled.paths.memo_table}
    assert kinds == {"pathcosts", "baseline", "rle", "census"}
    assert list(profiled.memo_table) == [("analysis", None)]
    braid_frame = profiled.memo_table["analysis", None][3]
    summaries = _summaries(braid_frame)
    assert summaries and all(isinstance(s, tuple) for s in summaries.values())
    assert {kind for kind, _extra in braid_frame.memo_table} == {
        "schedule", "constituents", "exec_fraction", "hls", "braid_schedule"
    }
    # SMALL has its own memory hierarchy: one calibration each
    assert [kind for kind, _extra in profiled.trace.memo_table] == [
        "calibration", "calibration"
    ]
    assert cache.put(PROFILE_KIND, key, profiled)
    assert path.read_bytes() == before

    # a loaded profile comes back with an empty table; the path profile
    # and the trace each survive a trip through the cache byte for byte,
    # and come back with empty tables
    assert cache.get(PROFILE_KIND, key).memo_table == {}
    for part in (profiled.paths, profiled.trace):
        assert cache.put(PROFILE_KIND, key, part)
        stored = path.read_bytes()
        loaded = cache.get(PROFILE_KIND, key)
        assert loaded.memo_table == {}
        assert cache.put(PROFILE_KIND, key, loaded)
        assert path.read_bytes() == stored
