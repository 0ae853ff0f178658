"""Table I — control flow characteristics of the hot functions (§II)."""

from __future__ import annotations

import pytest

from benchmarks.bench_table1 import _compute


@pytest.fixture(scope="module")
def rows(analyses):
    return _compute(analyses)


def test_memory_ops_depend_on_branches_somewhere(rows):
    # measured: Branch=>Mem > 0 on all 29
    assert any(r[1] > 0 for r in rows)


def test_every_hot_function_has_a_loop(rows):
    # measured: at least one backward branch on all 29 (freqmine has 2)
    assert all(r[4] >= 1 for r in rows)


def test_hyperblocks_enlarge_basic_blocks(rows):
    # paper: ~2.2x typical; measured mean 20.4x
    ratios = [r[5] for r in rows]
    assert sum(ratios) / len(ratios) > 1.5
