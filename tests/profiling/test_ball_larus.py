import pytest

from repro.interp import Interpreter
from repro.profiling import (
    BallLarusNumbering,
    PathNumberingError,
    PathProfile,
    count_ops,
)

from tests.conftest import profile_function


def test_total_paths_diamond(diamond):
    _, fn = diamond
    bl = BallLarusNumbering(fn)
    # two acyclic paths: entry->then->merge, entry->else->merge
    assert bl.total_paths == 2


def test_total_paths_counted_loop(counted_loop):
    _, fn = counted_loop
    bl = BallLarusNumbering(fn)
    # entry->header->exit, entry->header->body (ends at back edge),
    # header->exit (fake entry), header->body (fake entry)
    assert bl.total_paths == 4


def test_decode_yields_block_sequences(diamond):
    _, fn = diamond
    bl = BallLarusNumbering(fn)
    decoded = {tuple(b.name for b in bl.decode(i)) for i in range(bl.total_paths)}
    assert decoded == {
        ("entry", "then", "merge"),
        ("entry", "else", "merge"),
    }


def test_decode_ids_unique(loop_with_branch):
    _, fn = loop_with_branch
    bl = BallLarusNumbering(fn)
    seqs = [tuple(b.name for b in bl.decode(i)) for i in range(bl.total_paths)]
    assert len(seqs) == len(set(seqs)), "path ids must decode to distinct paths"


def test_encode_decode_roundtrip_all_ids(loop_with_branch):
    _, fn = loop_with_branch
    bl = BallLarusNumbering(fn)
    for pid in range(bl.total_paths):
        assert bl.encode(bl.decode(pid)) == pid


def test_decode_out_of_range(diamond):
    _, fn = diamond
    bl = BallLarusNumbering(fn)
    with pytest.raises(PathNumberingError):
        bl.decode(bl.total_paths)
    with pytest.raises(PathNumberingError):
        bl.decode(-1)


def test_encode_empty_rejected(diamond):
    _, fn = diamond
    bl = BallLarusNumbering(fn)
    with pytest.raises(PathNumberingError):
        bl.encode([])


def test_back_edge_queries(counted_loop):
    _, fn = counted_loop
    bl = BallLarusNumbering(fn)
    header = fn.get_block("header")
    body = fn.get_block("body")
    assert bl.is_back_edge(body, header)
    assert not bl.is_back_edge(header, body)
    # fake-edge values exist
    bl.back_edge_counter_value(body)
    bl.back_edge_reset_value(header)


def test_path_instruction_count_excludes_phis(counted_loop):
    _, fn = counted_loop
    bl = BallLarusNumbering(fn)
    for pid in range(bl.total_paths):
        blocks = bl.decode(pid)
        raw = sum(len(b.instructions) for b in blocks)
        assert count_ops(blocks, include_phis=True) == raw
        assert count_ops(blocks) == raw - sum(len(b.phis) for b in blocks)


def test_profile_counts_match_execution(counted_loop):
    m, fn = counted_loop
    profile, _ = profile_function(m, fn, [[10]])
    # 10 body iterations + 1 exit = 11 path executions
    assert profile.total_executions == 11
    # decode sanity: every counted id decodes
    for pid in profile.counts:
        profile.decode(pid)


def test_profile_trace_order(counted_loop):
    m, fn = counted_loop
    profile, _ = profile_function(m, fn, [[3]])
    assert len(profile.trace) == 4
    # the first path includes entry; later ones start at the header
    first_blocks = [b.name for b in profile.decode(profile.trace[0])]
    assert first_blocks[0] == "entry"
    later_blocks = [b.name for b in profile.decode(profile.trace[1])]
    assert later_blocks[0] == "header"


def test_profile_diamond_distinguishes_sides(diamond):
    m, fn = diamond
    profile, _ = profile_function(m, fn, [(1, 5), (1, 5), (9, 2)])
    assert profile.executed_paths == 2
    counts = sorted(profile.counts.values())
    assert counts == [1, 2]
    # the hot path goes through 'then'
    hot = max(profile.counts, key=profile.counts.get)
    assert "then" in [blk.name for blk in profile.decode(hot)]


def test_profiler_handles_nested_calls():
    from repro.ir import I32, IRBuilder, Module, verify_function

    m = Module()
    inner = m.add_function("inner", [("x", I32)], I32)
    bi = IRBuilder(inner)
    bi.set_block(bi.add_block("entry"))
    bi.ret(bi.add(inner.arg("x"), 1))

    outer = m.add_function("outer", [("x", I32)], I32)
    bo = IRBuilder(outer)
    bo.set_block(bo.add_block("entry"))
    r = bo.call(inner, [outer.arg("x")])
    bo.ret(bo.mul(r, 2))
    verify_function(inner)
    verify_function(outer)

    interp = Interpreter(m, record=[inner, outer])
    interp.run("outer", [5])
    for fn in (inner, outer):
        assert PathProfile.from_trace(interp.traces[fn]).total_executions == 1


def test_executed_paths_observed_subset_of_static(loop_with_branch):
    m, fn = loop_with_branch
    profile, _ = profile_function(m, fn, [[n] for n in (0, 1, 5, 13, 50)])
    bl = profile.numbering
    assert 0 < profile.executed_paths <= bl.total_paths
    # every observed path is a contiguous walk of real CFG edges
    for pid in profile.counts:
        blocks = profile.decode(pid)
        for a, b in zip(blocks, blocks[1:]):
            assert b in a.successors
