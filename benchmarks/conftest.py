"""Shared benchmark fixtures.

One :class:`~repro.pipeline.NeedlePipeline` is shared across every
benchmark in the session, so profiling/analysis happens once per workload
regardless of how many tables and figures consume it.  The pipeline is
built through :class:`~repro.options.PipelineOptions` — exactly the path
the CLI and ``evaluate_suite`` take — so the simulation memo and the
fail-safe retry plumbing are wired the same way here as in production
runs.  It is backed by the persistent artifact cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro-needle``), so a *second*
benchmark session skips re-profiling entirely; set ``REPRO_NO_CACHE=1``
to force cold runs.  Rendered outputs are both printed (visible with
``pytest -s``) and written under ``benchmarks/results/`` for inspection;
machine-readable performance numbers accumulate in ``BENCH_sim.json`` at
the repo root via :func:`update_bench_json`.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import workloads
from repro.options import PipelineOptions

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_sim.json")


@pytest.fixture(scope="session")
def pipeline():
    no_cache = bool(os.environ.get("REPRO_NO_CACHE"))
    return PipelineOptions(no_cache=no_cache).build_pipeline()


@pytest.fixture(scope="session")
def suite():
    return workloads.all_workloads()


@pytest.fixture(scope="session")
def analyses(pipeline, suite):
    return [pipeline.analyse(w) for w in suite]


@pytest.fixture(scope="session")
def evaluations(pipeline, suite):
    return pipeline.evaluate_all(suite)


def save_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    return path


def load_bench_json() -> dict:
    """The committed machine-readable benchmark record (empty if absent)."""
    try:
        with open(BENCH_JSON) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def update_bench_json(section: str, data: dict) -> str:
    """Merge one benchmark's numbers into ``BENCH_sim.json`` at the repo
    root — each benchmark owns a top-level section, so partial reruns
    never clobber the others."""
    record = load_bench_json()
    record[section] = data
    with open(BENCH_JSON, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return BENCH_JSON
