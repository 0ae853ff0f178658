from repro.analysis import (
    CFG,
    LoopInfo,
    back_edges,
)


def test_back_edges_simple_loop(counted_loop):
    _, fn = counted_loop
    edges = back_edges(fn)
    assert len(edges) == 1
    (src, dst) = edges[0]
    assert src.name == "body" and dst.name == "header"


def test_no_back_edges_in_diamond(diamond):
    _, fn = diamond
    assert back_edges(fn) == []


def test_loopinfo_counted_loop(counted_loop):
    _, fn = counted_loop
    li = LoopInfo.compute(fn)
    assert len(li.loops) == 1
    loop = li.loops[0]
    assert loop.header.name == "header"
    assert {b.name for b in loop.blocks} == {"header", "body"}
    assert loop.is_innermost
    assert loop.depth == 1
    assert li.backward_branch_count == 1


def test_loopinfo_loop_with_branch(loop_with_branch):
    _, fn = loop_with_branch
    li = LoopInfo.compute(fn)
    assert len(li.loops) == 1
    loop = li.loops[0]
    assert {b.name for b in loop.blocks} == {
        "header",
        "then",
        "else",
        "merge",
        "latch",
    }
    exits = loop.exits(CFG(fn))
    assert {(a.name, b.name) for a, b in exits} == {
        ("header", "exit"),
        ("latch", "exit"),
    }


def test_nested_loops():
    from repro.ir import Constant, I32, IRBuilder, Module, verify_function

    m = Module()
    fn = m.add_function("nested", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    oh = b.add_block("outer_header")
    ih = b.add_block("inner_header")
    ib = b.add_block("inner_body")
    ol = b.add_block("outer_latch")
    ex = b.add_block("exit")

    b.set_block(entry)
    b.br(oh)
    b.set_block(oh)
    i = b.phi(I32, "i")
    ci = b.icmp("slt", i, fn.arg("n"))
    b.condbr(ci, ih, ex)
    b.set_block(ih)
    j = b.phi(I32, "j")
    cj = b.icmp("slt", j, 4)
    b.condbr(cj, ib, ol)
    b.set_block(ib)
    j2 = b.add(j, 1)
    b.br(ih)
    b.set_block(ol)
    i2 = b.add(i, 1)
    b.br(oh)
    b.set_block(ex)
    b.ret(i)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(ol, i2)
    j.add_incoming(oh, Constant(I32, 0))
    j.add_incoming(ib, j2)
    verify_function(fn)

    li = LoopInfo.compute(fn)
    assert len(li.loops) == 2
    inner = li.loop_for_header(ih)
    outer = li.loop_for_header(oh)
    assert inner.parent is outer
    assert outer.children == [inner]
    assert inner.depth == 2 and outer.depth == 1
    assert inner.is_innermost and not outer.is_innermost
    assert li.innermost_loops() == [inner]
    assert li.innermost_loop_containing(ib) is inner
    assert li.innermost_loop_containing(ol) is outer
    assert li.innermost_loop_containing(ex) is None
    assert li.backward_branch_count == 2
