"""Braid effective-II: per-profile recurrence summaries and their fallbacks.

A braid constituent's frame and recurrence summary are built once per
(profile, path id) and kept on the :class:`PathProfile`; every
configuration afterwards only prices the summary.  A constituent that
cannot be framed is cached as a failure and still counted in
``sim.effective_ii_fallbacks`` on every evaluation that meets it.
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


def _braid_frame():
    w = workloads.get(WORKLOAD)
    return PipelineOptions(no_cache=True).build_pipeline().analyse(w).braid_frame


def _count_constituent_builds(monkeypatch, fail=None):
    """Count path-frame builds per path id where effective-II looks
    ``build_frame`` up; building path ``fail`` raises."""
    builds = Counter()
    original = frame_module.build_frame

    def build(region):
        if region.kind == "bl-path":
            (pid,) = region.source_paths
            builds[pid] += 1
            if pid == fail:
                raise FrameBuildError("injected for path %d" % pid)
        return original(region)

    monkeypatch.setattr(frame_module, "build_frame", build)
    return builds


def _record_braid_iis(monkeypatch):
    """Every braid effective-II the simulator returns, with its inputs."""
    calls = []
    original = OffloadSimulator._effective_ii

    def spy(self, frame, sched, profile, scheduler):
        ii = original(self, frame, sched, profile, scheduler)
        if frame.region.kind == "braid":
            calls.append((ii, frame, sched, profile, scheduler))
        return ii

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
    braid = _braid_frame()
    victim = braid.region.source_paths[1]
    iis = _record_braid_iis(monkeypatch)
    builds = _count_constituent_builds(monkeypatch, fail=victim)
    w = workloads.get(WORKLOAD)
    with obs.scoped() as reg:
        first = PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
        second = PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    fallbacks = reg.counter("sim.effective_ii_fallbacks")
    assert fallbacks.value(error="FrameBuildError") == 2
    assert builds[victim] == 1  # the failure is cached, not rebuilt
    assert first == second
    assert len(iis) == 2
    for ii, frame, sched, profile, scheduler in iis:
        assert ii == _scheduled_ii(frame, sched, profile, scheduler,
                                   skip=(victim,))


def test_summaries_are_built_once_across_configs(monkeypatch):
    iis = _record_braid_iis(monkeypatch)
    builds = _count_constituent_builds(monkeypatch)
    w = workloads.get(WORKLOAD)
    PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    PipelineOptions(config=SMALL, no_cache=True).build_pipeline().evaluate(w)
    profile = profile_workload(w).paths
    live = [pid for pid in iis[0][1].region.source_paths
            if profile.counts.get(pid, 0) > 0]
    assert len(live) >= 2
    assert builds == Counter({pid: 1 for pid in live})
    assert sorted(profile._recurrence) == sorted(live)
    default_ii, small_ii = iis
    assert default_ii[4].load_latency != small_ii[4].load_latency
    for ii, frame, sched, prof, scheduler in iis:
        assert prof is profile
        assert ii == _scheduled_ii(frame, sched, prof, scheduler)


def test_summary_table_stays_out_of_the_pickled_profile(tmp_path):
    w = workloads.get(WORKLOAD)
    PipelineOptions(no_cache=True).build_pipeline().evaluate(w)
    profiled = profile_workload(w)
    table = profiled.paths._recurrence
    assert table and all(isinstance(s, tuple) for s in table.values())

    key = profiled.artifact_key
    path = tmp_path / PROFILE_KIND / key[:2] / (key + ".pkl")
    cache = ArtifactCache(str(tmp_path))
    assert cache.put(PROFILE_KIND, key, profiled)
    with_table = path.read_bytes()
    saved = dict(table)
    table.clear()
    assert cache.put(PROFILE_KIND, key, profiled)
    assert path.read_bytes() == with_table
    table.update(saved)

    # the path profile itself survives a trip through the cache byte for
    # byte, and comes back without the table
    assert cache.put(PROFILE_KIND, key, profiled.paths)
    stored = path.read_bytes()
    loaded = cache.get(PROFILE_KIND, key)
    assert loaded._recurrence == {}
    assert cache.put(PROFILE_KIND, key, loaded)
    assert path.read_bytes() == stored
