"""One cold analysis of the suite, shared by every claim test.

The claim tests assert the paper's reproduction targets on the tables
that ``benchmarks/bench_*.py`` render; the benches themselves assert
nothing, so each claim lives once.
"""

from __future__ import annotations

import pytest

from repro import workloads
from repro.options import PipelineOptions


@pytest.fixture(scope="session")
def analyses():
    pipeline = PipelineOptions(no_cache=True).build_pipeline()
    return [pipeline.analyse(w) for w in workloads.all_workloads()]
