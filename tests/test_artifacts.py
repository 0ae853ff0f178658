"""Artifact cache: keys, storage, corruption tolerance, profile wiring."""

import os
import pickle
import sys

import pytest

from repro import workloads
from repro.artifacts import (
    EVALUATION_KIND,
    PROFILE_KIND,
    ArtifactCache,
    workload_key,
)
from repro.sim.config import DEFAULT_CONFIG, OffloadConfig, SystemConfig
from repro.workloads.base import ProfiledWorkload, profile_workload


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "artifacts"))


def test_workload_key_is_stable():
    w = workloads.get("164.gzip")
    key1, _ = workload_key(w, DEFAULT_CONFIG)
    key2, _ = workload_key(w, DEFAULT_CONFIG)
    assert key1 == key2
    assert len(key1) == 64  # sha256 hex


def test_workload_key_separates_workloads_and_configs():
    gzip = workloads.get("164.gzip")
    lbm = workloads.get("470.lbm")
    key_gzip, _ = workload_key(gzip, DEFAULT_CONFIG)
    key_lbm, _ = workload_key(lbm, DEFAULT_CONFIG)
    assert key_gzip != key_lbm

    eager = SystemConfig(offload=OffloadConfig(detect_failure_at_end=False))
    key_eager, _ = workload_key(gzip, eager)
    assert key_eager != key_gzip

    # profiles are config-independent: config=None gives its own key space
    key_none, _ = workload_key(gzip, None)
    assert key_none not in (key_gzip, key_eager)


def test_workload_key_hashes_global_initialisers():
    """The printed IR leaves the globals' initial values out; one changed
    element of gzip's input window still changes the key."""
    gzip = workloads.get("164.gzip")

    class FlippedWindow:
        name = gzip.name

        @staticmethod
        def build():
            module, fn, args = gzip.build()
            module.globals["window"].init[7] ^= 1
            return module, fn, args

    key, _ = workload_key(gzip, DEFAULT_CONFIG)
    flipped, (module, _fn, _args) = workload_key(FlippedWindow, DEFAULT_CONFIG)
    assert flipped != key
    assert workload_key(FlippedWindow, DEFAULT_CONFIG)[0] == flipped
    assert module.globals["window"].init[7] != gzip.build()[0].globals["window"].init[7]


def test_put_get_roundtrip(cache):
    assert cache.get(EVALUATION_KIND, "ab" * 32) is None
    assert cache.misses == 1
    assert cache.put(EVALUATION_KIND, "ab" * 32, {"x": 1})
    assert cache.get(EVALUATION_KIND, "ab" * 32) == {"x": 1}
    assert cache.hits == 1


def test_corrupt_entry_is_a_miss_and_evicted(cache):
    key = "cd" * 32
    cache.put(PROFILE_KIND, key, [1, 2, 3])
    path = cache._path(PROFILE_KIND, key)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle at all")
    assert cache.get(PROFILE_KIND, key) is None
    assert not os.path.exists(path)  # evicted
    # pipeline would recompute and overwrite:
    cache.put(PROFILE_KIND, key, [1, 2, 3])
    assert cache.get(PROFILE_KIND, key) == [1, 2, 3]


def test_unserialisable_put_is_refused_not_fatal(cache):
    assert not cache.put(EVALUATION_KIND, "ef" * 32, lambda: None)


def test_clear(cache):
    cache.put(PROFILE_KIND, "aa" * 32, 1)
    cache.put(EVALUATION_KIND, "bb" * 32, 2)
    assert cache.clear() == 2
    assert cache.get(PROFILE_KIND, "aa" * 32) is None


def test_clear_removes_every_kind_at_the_entry_depth(cache):
    # calibration/pathcosts tables as older builds wrote them
    cache.put("calibration", "cc" * 32, {"lat": 3.5})
    cache.put("pathcosts", "dd" * 32, {1: 2.0})
    cache.put(PROFILE_KIND, "aa" * 32, 1)
    # anything outside <root>/<kind>/<xx>/<key>.pkl is not an entry
    strays = [
        os.path.join(cache.root, *parts)
        for parts in (("stray.pkl",), ("profile", "stray.pkl"),
                      ("profile", "aa", "deep", "x.pkl"))
    ]
    for path in strays:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"x")
    assert cache.clear() == 3
    assert cache.get("calibration", "cc" * 32) is None
    assert cache.get("pathcosts", "dd" * 32) is None
    assert all(os.path.exists(path) for path in strays)


def test_env_var_overrides_default_root(tmp_path, monkeypatch):
    from repro.artifacts import CACHE_DIR_ENV, default_cache_dir

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
    assert default_cache_dir() == str(tmp_path / "env-cache")
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().endswith(os.path.join(".cache", "repro-needle"))


def test_fresh_profiles_pickle_to_identical_bytes():
    # blocks hash by identity, so any unordered container of blocks in a
    # profile pickles in memory-address order; freqmine's back edges did
    w = workloads.get("freqmine")
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        payloads = {
            pickle.dumps(profile_workload(w, use_cache=False),
                         protocol=pickle.HIGHEST_PROTOCOL)
            for _ in range(8)
        }
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(payloads) == 1


def test_profile_workload_roundtrips_through_cache(cache):
    w = workloads.get("164.gzip")
    fresh = profile_workload(w, use_cache=False, artifact_cache=cache)
    assert cache.hits == 0 and cache.misses == 1

    reloaded = profile_workload(w, use_cache=False, artifact_cache=cache)
    assert cache.hits == 1
    assert isinstance(reloaded, ProfiledWorkload)
    assert reloaded is not fresh  # came off disk, not memory
    assert reloaded.workload is w  # live registry workload reattached
    assert reloaded.paths.counts == fresh.paths.counts
    assert reloaded.paths.trace == fresh.paths.trace
    assert reloaded.trace.memory == fresh.trace.memory
    assert reloaded.result == fresh.result

    # regression: decode() must survive the pickle round-trip — the BL
    # ENTRY/EXIT sentinels come back as equal-but-distinct string objects
    for path_id, _count in fresh.paths.counts.most_common(3):
        assert [b.name for b in reloaded.paths.decode(path_id)] == [
            b.name for b in fresh.paths.decode(path_id)
        ]
