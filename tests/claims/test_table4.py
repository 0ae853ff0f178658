"""Table IV — braid characteristics (§IV-B)."""

from __future__ import annotations

import pytest

from benchmarks.bench_table4 import _compute
from repro.frames import build_frame
from repro.regions import build_braids


@pytest.fixture(scope="module")
def rows(analyses):
    return {r[0]: r for r in _compute(analyses)}


def test_merging_raises_coverage_beyond_the_top_path(rows):
    # merging raises coverage beyond the single hottest path everywhere a
    # workload has sibling paths
    for name in ("186.crafty", "458.sjeng", "blackscholes"):
        assert rows[name][2] > 1.0


def test_braids_introduce_internal_ifs(rows):
    # braids introduce internal IFs when they merge control flow
    assert sum(1 for r in rows.values() if r[6] > 0) >= 10


def test_swaptions_is_the_big_outlier_braid(rows):
    # paper: 1704 ins
    assert rows["swaptions"][4] > 300


def test_c7_is_what_the_top_braid_frame_transfers(analyses, rows):
    live_ins = []
    for a in analyses:
        top = build_braids(a.profiled.function, a.ranked)[0]
        frame = build_frame(top.region)
        assert rows[a.name][7] == "%d,%d" % (
            len(frame.live_ins), len(frame.live_outs)
        )
        live_ins.append(len(frame.live_ins))
    assert len(live_ins) == 29
    # loop-carried entry φs are live-ins: most top braids hand over more
    # than one value
    assert max(live_ins) > 1


def test_braids_have_fewer_guards_than_paths(analyses):
    """§IV-B: on many applications the braid needs fewer guards than its
    hottest constituent path (merging internalises branches)."""
    fewer = 0
    total = 0
    for a in analyses:
        braids = build_braids(a.profiled.function, a.ranked)
        if not braids or not a.ranked:
            continue
        total += 1
        braid_guards = len(braids[0].region.guard_branches())
        if braid_guards <= a.path_frame.guard_count:
            fewer += 1
    assert fewer >= total * 0.6
