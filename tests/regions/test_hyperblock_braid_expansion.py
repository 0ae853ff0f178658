from repro.profiling import rank_paths
from repro.regions import (
    braid_memory_branch_dependences,
    braid_table_row,
    build_braids,
    build_hyperblock,
    build_loop_hyperblock,
    expand_path,
    hottest_innermost_loop,
    hyperblock_cold_stats,
    summarise_expansion,
)


# -- hyperblocks ---------------------------------------------------------------


def test_hyperblock_folds_unbiased_branches(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    loop = hottest_innermost_loop(fn, ep)
    hb = build_loop_hyperblock(fn, loop, ep)
    names = {b.name for b in hb.blocks}
    # both sides of both 50/50 diamonds get folded in
    assert {"B1", "B2", "D1", "D2"} <= names


def test_hyperblock_follows_hot_side_when_biased(profiled_loop_with_branch):
    m, fn, pp, ep = profiled_loop_with_branch
    loop = hottest_innermost_loop(fn, ep)
    hb = build_loop_hyperblock(fn, loop, ep, bias_threshold=0.55)
    # srem(i,3)==0 is ~33% biased toward 'merge' (not-taken), so with a low
    # threshold only the hot side is followed
    names = {b.name for b in hb.blocks}
    assert "merge" in names


def test_hyperblock_respects_allowed_set(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    loop = hottest_innermost_loop(fn, ep)
    hb = build_loop_hyperblock(fn, loop, ep)
    assert all(b in loop.blocks for b in hb.blocks)


def test_hyperblock_cold_stats(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    loop = hottest_innermost_loop(fn, ep)
    hb = build_loop_hyperblock(fn, loop, ep)
    stats = hyperblock_cold_stats(hb, ep)
    assert stats.total_ops > 0
    # B1/B2/D1/D2 run at 50% of the header -> cold at the 0.5 threshold? No:
    # cold means strictly below threshold*entry, and 0.5*entry == their count,
    # so they are not cold; but with a higher cutoff they are.
    strict = hyperblock_cold_stats(hb, ep, cold_threshold=0.75)
    assert strict.cold_ops > 0
    assert 0.0 < strict.cold_fraction < 1.0
    assert stats.predication_branches >= 2


def test_hyperblock_without_loops(diamond):
    from tests.regions.conftest import profile_function

    m, fn = diamond
    pp, ep = profile_function(m, fn, [[1, 5], [9, 1]])
    hb = build_hyperblock(fn, ep, bias_threshold=0.9)
    names = {b.name for b in hb.blocks}
    assert {"entry", "then", "else", "merge"} == names
    assert hottest_innermost_loop(fn, ep) is None


# -- braids -----------------------------------------------------------------------


def test_braids_group_by_entry_exit(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    braids = build_braids(fn, ranked)
    # the two loop-body paths (A..E) share entry/exit and merge into one braid
    top = braids[0]
    assert top.n_paths >= 2
    names = {b.name for b in top.region.blocks}
    assert {"B1", "B2", "D1", "D2"} <= names


def test_braid_coverage_is_sum_of_paths(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    braids = build_braids(fn, ranked)
    for braid in braids:
        assert abs(
            braid.coverage - sum(p.coverage for p in braid.paths)
        ) < 1e-12
        assert braid.region.frequency == sum(p.freq for p in braid.paths)


def test_braid_live_values_match_constituent_paths(profiled_anticorrelated):
    """§IV-B: merging same-entry/exit paths leaves the frame's live-ins
    unchanged; its live-outs can only shrink, as a merged arm no longer
    reads a value from outside the region."""
    from repro.frames import build_frame
    from repro.regions import path_to_region

    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    braids = build_braids(fn, ranked)
    top = braids[0]
    assert top.n_paths == 2
    braid = build_frame(top.region)
    paths = [build_frame(path_to_region(fn, p)) for p in top.paths]
    for path in paths:
        assert set(path.live_ins) == set(braid.live_ins)
    path_outs = set().union(*(path.live_outs for path in paths))
    assert set(braid.live_outs) < path_outs
    # each path's untaken arm reads the merge φ ``mid`` outside its region
    assert {v.name for v in path_outs - set(braid.live_outs)} == {"mid"}


def test_braid_guards_vs_ifs(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    top = build_braids(fn, ranked)[0]
    guards = top.region.guard_branches()
    ifs = top.region.internal_branches()
    # merging internalises the two diamond branches
    if_names = {b.name for b in ifs}
    assert {"P", "C"} <= if_names
    assert set(guards).isdisjoint(ifs)


def test_braid_fewer_guards_than_paths(profiled_anticorrelated):
    from repro.frames import build_frame
    from repro.regions import path_to_region

    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    top = build_braids(fn, ranked)[0]
    braid_guards = len(top.region.guard_branches())
    path_guards = build_frame(path_to_region(fn, top.paths[0])).guard_count
    assert braid_guards <= path_guards


def test_braid_max_paths_cap(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    braids = build_braids(fn, ranked, max_paths_per_braid=1)
    assert all(b.n_paths == 1 for b in braids)


def test_braid_table_row(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    braids = build_braids(fn, ranked)
    row = braid_table_row(fn, braids)
    assert row.n_braids == len(braids)
    assert row.avg_paths_per_braid >= 1.0
    assert row.top_ops == braids[0].region.op_count
    assert row.top_guards >= 0 and row.top_ifs >= 2


def test_braid_table_row_empty(diamond):
    _, fn = diamond
    row = braid_table_row(fn, [])
    assert row.n_braids == 0 and row.top_coverage == 0.0


def test_braid_memory_dependences(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    top = build_braids(fn, rank_paths(pp))[0]
    # no memory ops in this kernel at all
    assert braid_memory_branch_dependences(top) == 0


def test_braids_sorted_by_weight(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    braids = build_braids(fn, rank_paths(pp))
    weights = [b.weight for b in braids]
    assert weights == sorted(weights, reverse=True)


# -- expansion -----------------------------------------------------------------------


def test_expand_path_repeating(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    expanded = expand_path(pp, ranked[0])
    # even/odd iterations alternate, so the best successor is the *other* path
    assert expanded.successor_id is not None
    assert not expanded.repeats_same_path
    assert expanded.bias > 0.9
    assert expanded.growth_factor > 1.5


def test_expand_path_same_repeats(counted_loop):
    from tests.regions.conftest import profile_function

    m, fn = counted_loop
    pp, ep = profile_function(m, fn, [[50]])
    ranked = rank_paths(pp)
    expanded = expand_path(pp, ranked[0])
    assert expanded.repeats_same_path
    assert expanded.growth_factor >= 1.9  # same path doubles the unit
    assert expanded.bias_bucket in ("90-100%",)


def test_expand_path_min_bias_gate(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    expanded = expand_path(pp, ranked[0], min_bias=1.01)
    assert expanded.successor_blocks == []
    assert expanded.growth_factor == 1.0


def test_summarise_expansion(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    summary = summarise_expansion(pp, rank_paths(pp))
    assert summary is not None
    assert summary.bias_bucket == "90-100%"
    assert summary.growth_factor > 1.0
    assert summarise_expansion(pp, []) is None
