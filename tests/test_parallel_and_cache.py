"""Suite fan-out determinism and pipeline-level cache round-trips."""

import pytest

from repro import workloads
from repro.artifacts import ArtifactCache
from repro.cli import evaluation_row
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline, WorkloadEvaluation

#: small but structurally diverse slice of the suite: int + fp, loop-heavy
#: and branchy kernels — enough shapes to catch ordering/pickling bugs
#: without paying for all 29 workloads in one test.
SUBSET = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


def _suite(names):
    return [workloads.get(name) for name in names]


def _outcome_fields(outcome):
    if outcome is None:
        return None
    return vars(outcome).copy()


def _flatten(ev: WorkloadEvaluation):
    """Every number an evaluation carries, as plain comparable data."""
    return {
        "summary": vars(ev.summary).copy(),
        "path_oracle": _outcome_fields(ev.path_oracle),
        "path_history": _outcome_fields(ev.path_history),
        "braid": _outcome_fields(ev.braid),
        "hls": _outcome_fields(ev.hls),
        "braid_schedule": _outcome_fields(ev.braid_schedule),
    }


def test_parallel_evaluate_matches_serial_bitwise():
    serial = NeedlePipeline().evaluate_all(_suite(SUBSET))
    fanned = NeedlePipeline(
        options=PipelineOptions(jobs=4)
    ).evaluate_all(_suite(SUBSET))

    assert [ev.name for ev in fanned] == SUBSET  # suite order preserved
    for s, p in zip(serial, fanned):
        assert _flatten(s) == _flatten(p)
    # the formatted table rows are the user-visible contract
    for name, s, p in zip(SUBSET, serial, fanned):
        assert evaluation_row(name, s) == evaluation_row(name, p)


def test_timeline_after_parallel_sweep_matches_serial():
    # the `evaluate --jobs N --timeline-out` path: the parent replays the
    # timelines itself after the workers evaluated the suite
    suite = _suite(SUBSET[:2])
    fanned = NeedlePipeline(options=PipelineOptions(no_cache=True, jobs=2))
    fanned.evaluate_all(suite)
    serial = NeedlePipeline(options=PipelineOptions(no_cache=True))
    serial.evaluate_all(suite)
    for w in suite:
        tracks = serial.timeline(w)
        assert tracks and fanned.timeline(w) == tracks


def test_jobs_one_and_single_workload_stay_serial():
    pipeline = NeedlePipeline()
    assert pipeline._execution_plan(None, 2) == ("serial", 1)
    assert pipeline._execution_plan(1, 2) == ("serial", 1)
    assert pipeline._execution_plan(4, 1) == ("serial", 1)
    # fully memoized suite: nothing left to fan out
    suite = _suite(SUBSET[:2])
    pipeline.evaluate_all(suite)
    todo = [w for w in suite if w.name not in pipeline._evaluations]
    assert pipeline._execution_plan(4, len(todo)) == ("serial", 1)
    # parallel sweeps clamp the pool to the work available
    assert pipeline._execution_plan(4, 2) == ("process", 2)
    assert pipeline._execution_plan(2, 8) == ("process", 2)


def test_evaluation_cache_roundtrip_in_fresh_pipeline(tmp_path):
    cache_dir = str(tmp_path / "cache")
    name = SUBSET[0]

    warm = NeedlePipeline(cache=ArtifactCache(cache_dir))
    first = warm.evaluate(workloads.get(name))
    assert warm.cache.hits == 0

    # a brand-new pipeline (fresh in-memory state) must rebuild the exact
    # OffloadOutcome numbers from disk alone
    cold = NeedlePipeline(cache=ArtifactCache(cache_dir))
    second = cold.evaluate(workloads.get(name))
    assert cold.cache.hits > 0
    assert _flatten(first) == _flatten(second)
    assert second.braid is not None
    assert second.braid.performance_improvement == pytest.approx(
        first.braid.performance_improvement, abs=0.0
    )


def test_filled_cache_holds_only_profiles_and_evaluations(
    tmp_path, monkeypatch
):
    from repro.workloads import base

    # a profile already in the in-process cache would skip its disk write
    monkeypatch.setattr(base, "_PROFILE_CACHE", {})
    cache_dir = tmp_path / "cache"
    NeedlePipeline(cache=ArtifactCache(str(cache_dir))).evaluate_all(
        _suite(SUBSET[:2])
    )
    kinds = sorted(p.parent.parent.name for p in cache_dir.glob("*/*/*.pkl"))
    assert kinds == ["evaluation"] * 2 + ["profile"] * 2
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        "evaluation", "profile",
    ]


def test_corrupt_evaluation_entry_recomputes(tmp_path):
    import glob
    import os

    cache_dir = str(tmp_path / "cache")
    name = SUBSET[0]
    NeedlePipeline(cache=ArtifactCache(cache_dir)).evaluate(workloads.get(name))

    for path in glob.glob(os.path.join(cache_dir, "**", "*.pkl"), recursive=True):
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage")

    pipeline = NeedlePipeline(cache=ArtifactCache(cache_dir))
    ev = pipeline.evaluate(workloads.get(name))
    assert ev.braid is not None  # recomputed, not crashed
    assert pipeline.cache.misses > 0

    clean = NeedlePipeline().evaluate(workloads.get(name))
    assert _flatten(ev) == _flatten(clean)


def test_cache_separates_configs(tmp_path):
    from repro.artifacts import EVALUATION_KIND, workload_key
    from repro.sim.config import DEFAULT_CONFIG, OffloadConfig, SystemConfig

    cache_dir = str(tmp_path / "cache")
    name = SUBSET[0]
    default = NeedlePipeline(cache=ArtifactCache(cache_dir))
    default.evaluate(workloads.get(name))

    # different config ⇒ different evaluation key: the stored evaluation
    # cannot be served, so the eager run must recompute (cache misses).
    # Config-independent sub-simulation tables (calibration/path costs,
    # keyed by the memory/host slice only) *are* legitimately shared —
    # the offload knob below is outside both slices.
    eager_cfg = SystemConfig(offload=OffloadConfig(detect_failure_at_end=False))
    key_default, _ = workload_key(workloads.get(name), DEFAULT_CONFIG)
    key_eager, _ = workload_key(workloads.get(name), eager_cfg)
    assert key_default != key_eager
    eager = NeedlePipeline(eager_cfg, cache=ArtifactCache(cache_dir))
    ev = eager.evaluate(workloads.get(name))
    assert eager.cache.misses > 0
    assert eager.cache.get(EVALUATION_KIND, key_eager) is not None  # stored anew
    reference = NeedlePipeline(eager_cfg).evaluate(workloads.get(name))
    assert _flatten(ev) == _flatten(reference)


def test_pipeline_accepts_cache_path_string(tmp_path):
    pipeline = NeedlePipeline(cache=str(tmp_path / "cache"))
    assert isinstance(pipeline.cache, ArtifactCache)
    pipeline.evaluate(workloads.get(SUBSET[0]))
    assert pipeline.cache.misses > 0  # cold cache was consulted
