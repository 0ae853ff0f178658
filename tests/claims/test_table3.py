"""Table III — next-path target expansion across back edges (§IV-A)."""

from __future__ import annotations

import pytest

from benchmarks.bench_table3 import _compute


@pytest.fixture(scope="module")
def rows(analyses):
    return _compute(analyses)


def _bucket(rows, bucket):
    return [r[0] for r in rows if r[2] == bucket]


def test_most_successors_are_strongly_biased(rows):
    # paper: 15/29 workloads in the 90-100% bucket; measured 17
    assert len(_bucket(rows, "90-100%")) >= 10


def test_some_successors_are_weakly_biased(rows):
    # a gzip/crafty/sjeng-style <70% population; measured 9
    assert len(_bucket(rows, "<70%")) >= 3


def test_most_hot_paths_repeat_themselves(rows):
    # paper: 17/29; measured 22
    assert sum(1 for r in rows if r[3] == "same") >= 10


def test_expansion_grows_the_offload_unit(rows):
    # paper: +72% average; measured x2.0
    growth = [r[4] for r in rows]
    assert sum(growth) / len(growth) > 1.3
