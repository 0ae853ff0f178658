from repro.frames import build_frame
from repro.profiling import count_memory_ops, rank_paths
from repro.regions import (
    build_superblock,
    diagnose_superblock,
    path_to_region,
    superblock_is_feasible,
)


def test_path_region_roundtrip(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    ranked = rank_paths(pp)
    region = path_to_region(fn, ranked[0])
    assert region.kind == "bl-path"
    assert region.entry is ranked[0].blocks[0]
    assert region.exit is ranked[0].blocks[-1]
    # single flow of control: consecutive blocks are CFG-linked
    assert all(b in a.successors for a, b in zip(region.blocks, region.blocks[1:]))
    assert region.coverage == ranked[0].coverage
    assert region.op_count == ranked[0].ops
    assert region.source_paths == [ranked[0].path_id]


def test_path_region_metrics(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    region = path_to_region(fn, rank_paths(pp)[0])
    assert count_memory_ops(region.blocks) == 0
    assert region.op_count > 0
    frame = build_frame(region)
    assert frame.guard_count >= 1
    # entry φs are live-ins; every other φ on the path cancels
    assert frame.cancelled_phis == sum(len(b.phis) for b in region.blocks[1:])
    # blocks membership
    for b in region.blocks:
        assert b in region


def test_region_guard_and_internal_branches(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    region = path_to_region(fn, rank_paths(pp)[0])
    guards = region.guard_branches()
    internals = region.internal_branches()
    assert set(guards).isdisjoint(internals)
    # a pure path has no internal branches unless both sides rejoin the path
    for blk in internals:
        assert all(s in region for s in blk.successors)


def test_region_exit_edges(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    region = path_to_region(fn, rank_paths(pp)[0])
    for src, dst in region.exit_edges():
        assert src in region and dst not in region


def test_superblock_grows_hot_trace(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    sb = build_superblock(fn, ep)
    assert sb.kind == "superblock"
    assert len(sb.blocks) >= 2
    # consecutive blocks are CFG-linked
    for a, b in zip(sb.blocks, sb.blocks[1:]):
        assert b in a.successors


def test_superblock_is_acyclic(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    sb = build_superblock(fn, ep)
    assert len(set(sb.blocks)) == len(sb.blocks)


def test_superblock_feasible_on_biased_code(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    sb = build_superblock(fn, ep)
    assert superblock_is_feasible(sb, pp)


def test_superblock_infeasible_on_anticorrelated(profiled_anticorrelated):
    """Paper Fig. 3: edge profiles construct a never-executed superblock."""
    m, fn, pp, ep = profiled_anticorrelated
    sb = build_superblock(fn, ep)
    names = [b.name for b in sb.blocks]
    # the superblock mixes sides of the two anti-correlated branches
    assert not superblock_is_feasible(sb, pp)


def test_diagnose_superblock(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    diag = diagnose_superblock(fn, ep, pp, ranked)
    assert diag.function == "anticorr"
    assert not diag.feasible
    assert not diag.matches_hottest_path
    assert diag.superblock_blocks and diag.hottest_path_blocks


def test_diagnose_superblock_feasible(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    ranked = rank_paths(pp)
    diag = diagnose_superblock(fn, ep, pp, ranked)
    assert diag.feasible


def test_superblock_max_blocks(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    sb = build_superblock(fn, ep, max_blocks=2)
    assert len(sb.blocks) <= 2


def test_superblock_explicit_seed(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    seed = fn.get_block("then")
    sb = build_superblock(fn, ep, seed=seed)
    assert sb.blocks[0] is seed
