"""The determinism contract: semantic metrics are identical whether a
suite was evaluated serially, across a worker pool, or served from the
artifact cache."""

import pytest

from repro import obs
from repro.obs import export
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.workloads import get
from repro.workloads.base import clear_profile_cache

SUBSET = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.registry().clear()
    clear_profile_cache()
    yield
    obs.disable()
    obs.registry().clear()
    clear_profile_cache()


def _run(jobs=None, cache=None) -> str:
    clear_profile_cache()
    obs.enable(reset=True)
    pipeline = NeedlePipeline(cache=cache, options=PipelineOptions(jobs=jobs))
    pipeline.evaluate_all([get(n) for n in SUBSET])
    text = export.semantic_json(None)
    obs.disable()
    return text


def test_serial_and_parallel_semantic_metrics_identical():
    assert _run(jobs=None) == _run(jobs=2)


def test_cold_and_cache_served_semantic_metrics_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = _run(cache=cache_dir)
    warm = _run(cache=cache_dir)
    assert cold == warm
    assert cold == _run()  # and both match a cache-less run


def test_parallel_run_collects_operational_metrics_too():
    clear_profile_cache()
    obs.enable(reset=True)
    pipeline = NeedlePipeline(options=PipelineOptions(jobs=2))
    pipeline.evaluate_all([get(n) for n in SUBSET])
    reg = obs.registry()
    workers = reg.get("pipeline.worker_tasks")
    assert workers is not None
    assert sum(v for _k, v in workers.series()) == len(SUBSET)
    outcomes = reg.get("pipeline.cache_outcome")
    assert sum(v for _k, v in outcomes.series()) == len(SUBSET)
    # worker span trees were adopted under the parent's evaluate_all span
    roots = [r.name for r in reg.span_roots]
    assert "evaluate_all" in roots


def test_memo_hits_do_not_double_count():
    obs.enable(reset=True)
    pipeline = NeedlePipeline()
    w = get("dwt53")
    pipeline.evaluate(w)
    first = export.semantic_json(None)
    pipeline.evaluate(w)  # in-memory memo hit: publishes nothing
    assert export.semantic_json(None) == first


def test_semantic_counters_cover_the_paper_statistics():
    obs.enable(reset=True)
    NeedlePipeline().evaluate(get("dwt53"))
    names = {m.name for m in obs.registry().metrics() if m.semantic}
    for expected in (
        "interp.instructions_retired",
        "interp.memory_trace_events",
        "profile.paths_recorded",
        "sim.cycles",
        "sim.frame_guard_failures",
        "sim.mem_accesses",
        "frames.ops",
        "cgra.schedule_cycles",
    ):
        assert expected in names, expected
