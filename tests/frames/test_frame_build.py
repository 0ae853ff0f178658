import pytest

from repro.accel import CGRAScheduler
from repro.frames import Frame, FrameBuildError, build_frame
from repro.ir import I32, IRBuilder, Module, verify_function
from repro.ir.instructions import Load, Store
from repro.profiling import count_memory_ops, rank_paths
from repro.regions import Region, build_braids, path_to_region
from tests.regions.conftest import profile_function


def _hot_path_frame(profiled):
    m, fn, pp, ep = profiled
    ranked = rank_paths(pp)
    region = path_to_region(fn, ranked[0])
    return m, fn, pp, build_frame(region)


def test_path_frame_basic(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    assert frame.op_count > 0
    assert frame.guard_count >= 1
    assert frame.psis == []  # pure paths never need ψ selects
    assert frame.cancelled_phis >= 1  # latch acc.next φ cancels


def test_path_frame_guards_point_along_path(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    order = frame.region.blocks
    for g in frame.guards:
        assert g.block in frame.region
        assert g.block is not order[-1]
        for stay in g.stay_targets:
            assert stay in frame.region


def test_exit_block_branch_is_not_a_guard(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    exit_block = frame.region.blocks[-1]
    assert all(g.block is not exit_block for g in frame.guards)


def test_entry_phis_become_live_ins(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    entry_phis = frame.region.entry.phis
    for phi in entry_phis:
        assert frame.phi_resolution[phi] == "live-in"
        assert phi in frame.live_ins


def test_undo_ops_accompany_stores(array_sum):
    m, fn = array_sum
    pp, ep = profile_function(m, fn, [[16]])
    ranked = rank_paths(pp)
    region = path_to_region(fn, ranked[0])
    frame = build_frame(region)
    # array_sum's hot path has loads but no stores
    assert frame.store_count == count_memory_ops(region.blocks) - sum(
        1 for b in region.blocks for i in b.instructions if i.opcode == "load"
    )
    assert sum(1 for o in frame.ops if o.kind == "undo") == frame.store_count


def test_store_frame_has_undo_ops():
    from repro.ir import Constant, I32, IRBuilder, Module, verify_function

    m = Module()
    g = m.add_global("out", I32, 64)
    fn = m.add_function("writer", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    exit_ = b.add_block("exit")
    b.set_block(entry)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    c = b.icmp("slt", i, fn.arg("n"))
    b.condbr(c, body, exit_)
    b.set_block(body)
    addr = b.gep(g, i, 4)
    v = b.mul(i, 7)
    b.store(v, addr)
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(body, i2)
    b.set_block(exit_)
    b.ret(i)
    verify_function(fn)

    pp, ep = profile_function(m, fn, [[8]])
    region = path_to_region(fn, rank_paths(pp)[0])
    frame = build_frame(region)
    assert frame.store_count == 1
    assert [o.kind for o in frame.ops].count("undo") == 1
    assert frame.op_count == frame.compute_op_count + frame.guard_count + 1


def test_braid_frame_psis(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    braids = build_braids(fn, rank_paths(pp))
    frame = build_frame(braids[0].region)
    # the two merge φs (mid, out) become ψ selects with diamond predicates
    assert len(frame.psis) == 2
    for psi in frame.psis:
        assert psi.predicate is not None
        assert len(psi.options) == 2


def test_braid_frame_guard_vs_if(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    braids = build_braids(fn, rank_paths(pp))
    frame = build_frame(braids[0].region)
    # P and C branches are internal IFs, not guards
    guard_blocks = {g.block.name for g in frame.guards}
    assert "P" not in guard_blocks and "C" not in guard_blocks


def test_hoisted_op_count(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    assert 0 <= frame.hoisted_op_count < frame.op_count
    if frame.guards:
        first = min(g.position for g in frame.guards)
        after = len(frame.ops) - first - 1
        assert frame.hoisted_op_count <= after


def _straight_line_memory_frame():
    """One block: store a -> buf[0]; x = load buf[1] + a; store x -> buf[1];
    return x + load buf[0]."""
    m = Module()
    g = m.add_global("buf", I32, 8)
    fn = m.add_function("f", [("a", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    b.set_block(entry)
    a = fn.arg("a")
    addr0 = b.gep(g, 0, 4)
    addr1 = b.gep(g, 1, 4)
    b.store(a, addr0)
    x = b.add(b.load(I32, addr1), a)
    b.store(x, addr1)
    b.ret(b.add(x, b.load(I32, addr0)))
    verify_function(fn)
    region = Region(kind="bl-path", function=fn, blocks=[entry], entry=entry,
                    exit=entry)
    return build_frame(region)


def test_speculative_dfg():
    """§V: in the frame's speculative dataflow graph
    (``CGRAScheduler._build_deps``) a load hoists above earlier stores;
    stores commit in order, each after the undo-log read of the value it
    overwrites."""
    frame = _straight_line_memory_frame()
    deps = CGRAScheduler()._build_deps(frame)
    index = {id(fop.inst): i for i, fop in enumerate(frame.ops)
             if fop.kind == "op"}
    loads = [i for i, fop in enumerate(frame.ops)
             if fop.kind == "op" and isinstance(fop.inst, Load)]
    stores = [i for i, fop in enumerate(frame.ops)
              if fop.kind == "op" and isinstance(fop.inst, Store)]
    assert len(loads) == 2 and len(stores) == 2
    # a load waits only for its address, never for a store
    for i in loads:
        assert deps[i] == [index[id(frame.ops[i].inst.address)]]
    assert stores[0] < loads[0] and stores[1] < loads[1]
    # each store depends on the previous store
    assert stores[0] in deps[stores[1]]
    # each store waits on its undo read, the op after it
    for i in stores:
        undo = frame.ops[i + 1]
        assert undo.kind == "undo" and undo.inst is frame.ops[i].inst
        assert i + 1 in deps[i]


def test_braid_holding_its_back_edge_frames_one_iteration(counted_loop):
    """A braid entering a loop from the function entry holds the loop's
    back edge.  One invocation never takes it, so the header φs take
    their value from the entry edge alone and the frame is acyclic."""
    _, fn = counted_loop
    entry, header, body = (fn.get_block(n) for n in ("entry", "header", "body"))
    region = Region(kind="braid", function=fn, blocks=[entry, header, body],
                    entry=entry, exit=body)
    frame = build_frame(region)
    assert frame.psis == [] and frame.cancelled_phis == 2
    for phi in header.phis:
        assert frame.phi_resolution[phi] is phi.incoming_for(entry)
    assert CGRAScheduler().schedule(frame).cycles > 0


def test_empty_region_rejected(diamond):
    _, fn = diamond
    region = Region(
        kind="bl-path", function=fn, blocks=[], entry=None, exit=None
    )
    with pytest.raises(FrameBuildError):
        build_frame(region)


def test_frame_live_values_against_region(profiled_loop_with_branch):
    m, fn, pp, frame = _hot_path_frame(profiled_loop_with_branch)
    # every live-out is defined inside the region
    defined = {
        i
        for b in frame.region.blocks
        for i in b.instructions
        if not i.type.is_void
    }
    for v in frame.live_outs:
        assert v in defined
    # no live-in is defined inside the region... except entry φs, which the
    # host materialises at invocation time
    entry_phis = set(frame.region.entry.phis)
    for v in frame.live_ins:
        assert v not in (defined - entry_phis)
