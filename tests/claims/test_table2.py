"""Table II — characteristics of the top-5 ranked BL paths (§III)."""

from __future__ import annotations

import pytest

from benchmarks.bench_table2 import _compute


@pytest.fixture(scope="module")
def rows(analyses):
    return {r[0]: r for r in _compute(analyses)}


def test_path_diffuse_workloads_execute_many_paths(rows):
    # measured: sjeng 258 executed paths, lbm 4
    assert rows["458.sjeng"][1] > 10 * rows["470.lbm"][1]


def test_lbm_paths_are_big_straight_line_bodies(rows):
    # measured: 252 instructions per top path (bound 200)
    assert rows["470.lbm"][3] > 200


def test_blackscholes_paths_cross_many_branches_with_few_memory_ops(rows):
    # measured: 18 branches (bound 15) and 1 memory op (bound 2)
    assert rows["blackscholes"][4] >= 15
    assert rows["blackscholes"][7] <= 2


def test_c6_is_what_the_top_path_frame_cancels(analyses, rows):
    # entry φs are live-ins, so C6 counts the path's other φs
    assert len(analyses) == 29
    for a in analyses:
        assert rows[a.name][6] == a.path_frame.cancelled_phis
