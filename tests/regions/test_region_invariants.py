"""Structural invariants of regions/braids asserted over the full suite."""

import pytest

from repro.analysis import DominatorTree
from repro.analysis.loops import back_edges
from repro.frames import build_frame
from repro.profiling import rank_paths
from repro.regions import (
    Region,
    build_braids,
    order_blocks_topologically,
    path_to_region,
)
from repro.workloads import all_names, get, profile_workload


@pytest.mark.parametrize("name", all_names())
def test_braid_invariants_across_suite(name):
    profiled = profile_workload(get(name))
    ranked = rank_paths(profiled.paths)
    braids = build_braids(profiled.function, ranked)
    total_cov = 0.0
    for braid in braids:
        region = braid.region
        # single entry / single exit identity
        assert region.entry is braid.paths[0].entry_block
        assert region.exit is braid.paths[0].exit_block
        for p in braid.paths:
            assert p.entry_block is region.entry
            assert p.exit_block is region.exit
        # coverage additivity
        assert abs(region.coverage - sum(p.coverage for p in braid.paths)) < 1e-9
        total_cov += region.coverage
        # acyclic: no back edge connects two braid blocks
        backs = back_edges(profiled.function)
        for u, v in backs:
            assert not (u in region and v in region and v is not region.entry) or (
                u is region.blocks[-1]
            )
    # braids partition the executed paths: coverages sum to <= 1
    assert total_cov <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["470.lbm", "186.crafty", "swaptions"])
def test_path_regions_are_cfg_walks(name):
    profiled = profile_workload(get(name))
    for p in rank_paths(profiled.paths, limit=10):
        region = path_to_region(profiled.function, p)
        for a, b in zip(region.blocks, region.blocks[1:]):
            assert b in a.successors


def test_order_blocks_topologically_respects_dominance(loop_with_branch):
    _, fn = loop_with_branch
    blocks = list(reversed(fn.blocks))  # scrambled
    ordered = order_blocks_topologically(fn, blocks)
    dom = DominatorTree.compute(fn)
    index = {b: i for i, b in enumerate(ordered)}
    for a in ordered:
        for b in ordered:
            if a is not b and dom.strictly_dominates(a, b):
                assert index[a] < index[b]


def test_region_membership_and_metrics(diamond):
    _, fn = diamond
    region = Region(
        kind="bl-path",
        function=fn,
        blocks=[fn.get_block("entry"), fn.get_block("then"), fn.get_block("merge")],
        entry=fn.get_block("entry"),
        exit=fn.get_block("merge"),
    )
    assert fn.get_block("then") in region
    assert fn.get_block("else") not in region
    assert region.op_count > 0
    assert region.phi_count == 1
    assert region.float_op_count == 0
    frame = build_frame(region)
    # the args flow in; the return reads the merged value in-region
    assert {v.name for v in frame.live_ins} == {"a", "b"}
    assert frame.live_outs == []
