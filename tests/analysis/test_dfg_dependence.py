from repro.accel import CGRAScheduler
from repro.analysis import (
    LoopInfo,
    backward_slice,
    branch_memory_stats,
    control_dependence,
    hyperblock_size_stats,
    predication_stats,
)
from repro.ir import I32, IRBuilder, Module, verify_function
from repro.ir.instructions import Load, Store
from tests.frames.test_frame_build import _straight_line_memory_frame


def test_dfg_speculative_memory_breaks_load_ordering():
    """The frame's dependence graph (``CGRAScheduler._build_deps``) lets a
    load issue before an earlier store but keeps store commit order."""
    frame = _straight_line_memory_frame()
    deps = CGRAScheduler()._build_deps(frame)
    ops = [(i, fop.inst) for i, fop in enumerate(frame.ops)
           if fop.kind == "op"]
    loads = [i for i, inst in ops if isinstance(inst, Load)]
    stores = [i for i, inst in ops if isinstance(inst, Store)]
    assert stores[0] < loads[0]
    # loads no longer wait for stores
    assert stores[0] not in deps[loads[0]]
    # but store commit order is preserved
    assert stores[0] in deps[stores[1]]


def test_control_dependence_diamond(diamond):
    _, fn = diamond
    cd = control_dependence(fn)
    entry = fn.get_block("entry")
    assert set(cd) == {entry}
    names = {b.name for b in cd[entry]}
    assert names == {"then", "else"}


def test_control_dependence_loop(loop_with_branch):
    _, fn = loop_with_branch
    cd = control_dependence(fn)
    then = fn.get_block("then")
    dep_names = {b.name for b in cd[then]}
    assert "else" in dep_names and "merge" in dep_names


def test_backward_slice_reaches_loads(array_sum):
    _, fn = array_sum
    # condition of the header branch depends on the phi, not on loads
    header = fn.get_block("header")
    cond = header.terminator.cond
    sl = backward_slice(cond)
    assert cond in sl
    assert any(i.opcode == "phi" for i in sl)


def test_branch_memory_stats_smoke(array_sum):
    _, fn = array_sum
    stats = branch_memory_stats(fn)
    assert stats.branch_count == 1
    # the load is control-dependent on the header branch
    assert stats.avg_mem_dependent_on_branch >= 1
    assert stats.avg_mem_branch_depends_on == 0


def test_branch_memory_stats_mem_to_branch():
    m = Module()
    g = m.add_global("flagbuf", I32, 4)
    fn = m.add_function("f", [("i", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    t = b.add_block("t")
    e = b.add_block("e")
    b.set_block(entry)
    addr = b.gep(g, fn.arg("i"), 4)
    v = b.load(I32, addr)
    c = b.icmp("sgt", v, 0)
    b.condbr(c, t, e)
    b.set_block(t)
    b.ret(1)
    b.set_block(e)
    b.ret(0)
    verify_function(fn)
    stats = branch_memory_stats(fn)
    assert stats.avg_mem_branch_depends_on == 1


def test_predication_stats(loop_with_branch):
    _, fn = loop_with_branch
    stats = predication_stats(fn)
    # header exit branch + if branch are forward; latch branch is backward
    assert stats.total_cond_branches == 3
    assert stats.forward_branches == 2
    assert LoopInfo.compute(fn).backward_branch_count == 1


def test_hyperblock_size_stats(loop_with_branch):
    _, fn = loop_with_branch
    stats = hyperblock_size_stats(fn)
    assert stats.avg_hyperblock_ops > stats.avg_basic_block_ops
    assert stats.expansion_ratio > 1.0


def test_hyperblock_size_stats_acyclic(diamond):
    _, fn = diamond
    stats = hyperblock_size_stats(fn)
    assert stats.avg_hyperblock_ops > 0
