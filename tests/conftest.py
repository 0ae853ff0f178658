"""Shared test fixtures: small canonical functions used across test modules."""

from __future__ import annotations

import pytest

from repro.artifacts import CACHE_DIR_ENV
from repro.ir import Constant, I32, IRBuilder, Module, verify_function


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path_factory, monkeypatch):
    """Keep every test's persistent artifact cache away from ~/.cache."""
    monkeypatch.setenv(
        CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-cache"))
    )


def build_diamond():
    """``if (a < b) x = a+1 else x = b*2; return x`` — classic diamond.

    Returns (module, function).
    """
    m = Module("diamond")
    fn = m.add_function("diamond", [("a", I32), ("b", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    then = b.add_block("then")
    els = b.add_block("else")
    merge = b.add_block("merge")

    b.set_block(entry)
    cond = b.icmp("slt", fn.arg("a"), fn.arg("b"))
    b.condbr(cond, then, els)

    b.set_block(then)
    x1 = b.add(fn.arg("a"), 1)
    b.br(merge)

    b.set_block(els)
    x2 = b.mul(fn.arg("b"), 2)
    b.br(merge)

    b.set_block(merge)
    phi = b.phi(I32, "x")
    phi.add_incoming(then, x1)
    phi.add_incoming(els, x2)
    b.ret(phi)
    verify_function(fn)
    return m, fn


def build_counted_loop():
    """``for (i = 0; i < n; i++) acc += i*2; return acc``.

    Returns (module, function).
    """
    m = Module("loop")
    fn = m.add_function("loop", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("slt", i, fn.arg("n"))
    b.condbr(cond, body, exit_)

    b.set_block(body)
    twice = b.mul(i, 2)
    acc_next = b.add(acc, twice)
    i_next = b.add(i, 1)
    b.br(header)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(body, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(body, acc_next)

    b.set_block(exit_)
    b.ret(acc)
    verify_function(fn)
    return m, fn


def build_loop_with_branch():
    """A loop whose body has an if/else diamond plus a break-style early exit.

    for (i = 0; i < n; i++):
        if (i % 3 == 0): acc += i
        else:            acc += 2*i
        if (acc > 100):  break
    return acc
    """
    from repro.ir import Constant

    m = Module("loop_branch")
    fn = m.add_function("loop_branch", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    then = b.add_block("then")
    els = b.add_block("else")
    merge = b.add_block("merge")
    latch = b.add_block("latch")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("slt", i, fn.arg("n"))
    b.condbr(cond, then, exit_)

    b.set_block(then)
    rem = b.srem(i, 3)
    is_zero = b.icmp("eq", rem, 0)
    b.condbr(is_zero, els, merge)

    b.set_block(els)
    a1 = b.add(acc, i)
    b.br(latch)

    b.set_block(merge)
    dbl = b.mul(i, 2)
    a2 = b.add(acc, dbl)
    b.br(latch)

    b.set_block(latch)
    acc_next = b.phi(I32, "acc.next")
    acc_next.add_incoming(els, a1)
    acc_next.add_incoming(merge, a2)
    big = b.icmp("sgt", acc_next, 100)
    i_next = b.add(i, 1)
    b.condbr(big, exit_, header)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(latch, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(latch, acc_next)

    b.set_block(exit_)
    result = b.phi(I32, "result")
    result.add_incoming(header, acc)
    result.add_incoming(latch, acc_next)
    b.ret(result)
    verify_function(fn)
    return m, fn


def build_array_sum(n: int = 16):
    """Sum a global i32 array of length ``n``; exercises load/gep."""
    from repro.ir import Constant

    m = Module("arraysum")
    data = m.add_global("data", I32, n, init=list(range(n)))
    fn = m.add_function("array_sum", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("slt", i, fn.arg("n"))
    b.condbr(cond, body, exit_)

    b.set_block(body)
    addr = b.gep(data, i, 4)
    val = b.load(I32, addr)
    acc_next = b.add(acc, val)
    i_next = b.add(i, 1)
    b.br(header)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(body, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(body, acc_next)

    b.set_block(exit_)
    b.ret(acc)
    verify_function(fn)
    return m, fn


def build_caller_and_callee():
    """``main(v)`` loads ``data[v]`` and calls ``square`` on it twice.

    Returns (module, main, square).
    """
    m = Module("calls")
    data = m.add_global("data", I32, 4, init=[3, 5, 7, 9])
    sq = m.add_function("square", [("x", I32)], I32)
    b = IRBuilder(sq)
    b.set_block(b.add_block("entry"))
    b.ret(b.mul(sq.arg("x"), sq.arg("x")))
    main = m.add_function("main", [("v", I32)], I32)
    b2 = IRBuilder(main)
    b2.set_block(b2.add_block("entry"))
    x = b2.load(I32, b2.gep(data, main.arg("v"), 4))
    r1 = b2.call(sq, [x])
    r2 = b2.call(sq, [r1])
    b2.ret(r2)
    verify_function(sq)
    verify_function(main)
    return m, main, sq


@pytest.fixture
def diamond():
    return build_diamond()


@pytest.fixture
def counted_loop():
    return build_counted_loop()


@pytest.fixture
def loop_with_branch():
    return build_loop_with_branch()


@pytest.fixture
def array_sum():
    return build_array_sum()


@pytest.fixture
def caller_and_callee():
    return build_caller_and_callee()


# -- region/profiling fixtures (shared by frames/accel/sim tests) --------

from repro.interp import Interpreter
from repro.profiling import EdgeProfile, PathProfile


def build_anticorrelated():
    """Fig. 3 style function: two perfectly anti-correlated diamonds in a loop.

    Even iterations take (A,P,B1,C,D2,E); odd take (A,P,B2,C,D1,E).  Every
    branch is 50/50 in the edge profile, and the two branches' locally chosen
    sides (B1 and D1) never execute together, so edge-profile-driven
    superblock growth constructs a block sequence that never occurs.
    """
    m = Module("anticorr")
    fn = m.add_function("anticorr", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    a = b.add_block("A")
    p = b.add_block("P")
    b1 = b.add_block("B1")
    b2 = b.add_block("B2")
    c = b.add_block("C")
    d1 = b.add_block("D1")
    d2 = b.add_block("D2")
    e = b.add_block("E")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(a)

    b.set_block(a)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    in_range = b.icmp("slt", i, fn.arg("n"))
    b.condbr(in_range, p, exit_)

    b.set_block(p)
    parity = b.srem(i, 2)
    even = b.icmp("eq", parity, 0)
    odd = b.icmp("ne", parity, 0)
    b.condbr(even, b1, b2)

    b.set_block(b1)
    t1 = b.add(acc, 1)
    b.br(c)

    b.set_block(b2)
    t2 = b.add(acc, 2)
    b.br(c)

    b.set_block(c)
    mid = b.phi(I32, "mid")
    mid.add_incoming(b1, t1)
    mid.add_incoming(b2, t2)
    # anti-correlated with the first diamond: even -> D2, odd -> D1, but the
    # branch is written on `odd` so each branch's *first* target belongs to
    # the other iteration parity.
    b.condbr(odd, d1, d2)

    b.set_block(d1)
    u1 = b.mul(mid, 3)
    b.br(e)

    b.set_block(d2)
    u2 = b.mul(mid, 5)
    b.br(e)

    b.set_block(e)
    out = b.phi(I32, "out")
    out.add_incoming(d1, u1)
    out.add_incoming(d2, u2)
    i_next = b.add(i, 1)
    b.br(a)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(e, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(e, out)

    b.set_block(exit_)
    b.ret(acc)
    verify_function(fn)
    return m, fn


def record_function(m, fn, runs):
    """The :class:`FunctionTrace` of ``fn`` over ``runs`` (one argument
    list per run, all on one interpreter)."""
    interp = Interpreter(m, record=[fn])
    for args in runs:
        interp.run(fn.name, args)
    return interp.traces[fn]


def profile_function(m, fn, runs):
    trace = record_function(m, fn, runs)
    return PathProfile.from_trace(trace), EdgeProfile.from_trace(trace)


@pytest.fixture
def anticorrelated():
    return build_anticorrelated()


@pytest.fixture
def profiled_loop_with_branch(loop_with_branch):
    m, fn = loop_with_branch
    pp, ep = profile_function(m, fn, [[n] for n in (5, 13, 60, 60, 60)])
    return m, fn, pp, ep


@pytest.fixture
def profiled_anticorrelated(anticorrelated):
    m, fn = anticorrelated
    pp, ep = profile_function(m, fn, [[40]])
    return m, fn, pp, ep


class RecomputeMemo:
    """Memo-off reference for simulator tests: set it as a simulator's
    ``memo`` and every sub-simulation lookup recomputes."""

    def get(self, kind, obj, extra, compute):
        return compute()
