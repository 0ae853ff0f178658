"""The metric catalogue of docs/observability.md names every family an
evaluation publishes."""

import os
import re

import pytest

from repro import obs, workloads
from repro.options import PipelineOptions
from repro.workloads.base import clear_profile_cache

DOC = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "observability.md"
)


def _catalogued():
    """The families the catalogue table names in its first column; a row
    ``a.b.c`` / ``.d`` names ``a.b.c`` and ``a.b.d``."""
    with open(DOC, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first = None
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if name.startswith("."):
                name = first.rsplit(".", 1)[0] + name
            else:
                first = name
            names.add(name)
    return names


@pytest.fixture
def fresh_profiles():
    # a fresh profile makes the evaluation run the interpreter, so its
    # profiling families publish too
    clear_profile_cache()
    yield
    clear_profile_cache()


def test_catalogue_parses_suffix_rows():
    names = _catalogued()
    assert {"sim.cycles", "sim.baseline_cycles", "profile.decode.hits",
            "profile.decode.misses"} <= names


def test_every_published_family_is_catalogued(fresh_profiles):
    with obs.scoped() as reg:
        PipelineOptions(no_cache=True).build_pipeline().evaluate(
            workloads.get("164.gzip")
        )
    published = {metric.name for metric in reg.metrics()}
    assert "simcache.hits" in published
    assert published - _catalogued() == set()
