import pytest

from repro.interp import FuelExhausted, Interpreter, InterpreterError
from repro.ir import F64, I32, IRBuilder, Module, verify_function


def test_diamond_semantics(diamond):
    m, fn = diamond
    interp = Interpreter(m)
    assert interp.run("diamond", [1, 5]) == 2  # a<b -> a+1
    assert interp.run("diamond", [5, 1]) == 2  # else -> b*2


def test_counted_loop_sum(counted_loop):
    m, _ = counted_loop
    interp = Interpreter(m)
    # sum of 2*i for i in 0..9 = 90
    assert interp.run("loop", [10]) == 90
    assert interp.run("loop", [0]) == 0


def test_loop_with_branch_semantics(loop_with_branch):
    m, _ = loop_with_branch
    interp = Interpreter(m)

    def model(n):
        acc = 0
        for i in range(n):
            acc += i if i % 3 == 0 else 2 * i
            if acc > 100:
                break
        return acc

    for n in (0, 1, 5, 13, 50):
        assert interp.run("loop_branch", [n]) == model(n)


def test_array_sum(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    assert interp.run("array_sum", [16]) == sum(range(16))
    assert interp.run("array_sum", [4]) == 0 + 1 + 2 + 3


def test_global_inputs_can_be_rewritten(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    base = interp.address_of("data")
    interp.memory.write_array(base, I32, [5] * 16)
    assert interp.run("array_sum", [16]) == 80


def test_tracer_records_blocks_and_memory(array_sum):
    m, fn = array_sum
    interp = Interpreter(m, record=[fn])
    interp.run("array_sum", [4])
    trace = interp.traces[fn]
    assert trace.invocations == 1
    names = [b.name for b in trace.blocks if b is not None]
    assert names[0] == "entry"
    assert names.count("body") == 4
    assert names[-1] == "exit"
    loads = [a for op, a in trace.memory if op == "load"]
    assert len(loads) == 4
    # addresses are consecutive words
    assert loads[1] - loads[0] == 4


def test_trace_invocation_sequences(diamond):
    m, fn = diamond
    interp = Interpreter(m, record=[fn])
    interp.run("diamond", [1, 5])
    interp.run("diamond", [5, 1])
    assert interp.traces[fn].invocations == 2
    seqs = interp.traces[fn].invocation_sequences()
    assert len(seqs) == 2
    assert [b.name for b in seqs[0]] == ["entry", "then", "merge"]
    assert [b.name for b in seqs[1]] == ["entry", "else", "merge"]


def test_trace_filter():
    m = Module()
    f = m.add_function("f", [], I32)
    b = IRBuilder(f)
    b.set_block(b.add_block("entry"))
    b.ret(1)
    interp = Interpreter(m, record=[])  # record nothing
    interp.run("f", [])
    assert interp.traces == {}


def test_fuel_exhaustion():
    m = Module()
    fn = m.add_function("spin", [], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    loop = b.add_block("loop")
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    b.br(loop)
    verify_function(fn)
    interp = Interpreter(m, fuel=1000)
    with pytest.raises(FuelExhausted):
        interp.run("spin", [])


def test_fuel_exhausting_block_is_recorded(counted_loop):
    m, fn = counted_loop
    # entry (1) + header (2) + body (4) = 7: the next header breaks the
    # budget, so it is recorded but does not run
    interp = Interpreter(m, record=[fn], fuel=7)
    with pytest.raises(FuelExhausted):
        interp.run("loop", [10])
    names = [b.name for b in interp.traces[fn].blocks]
    assert names == ["entry", "header", "body", "header"]
    assert interp.executed_instructions == 9


def test_nested_calls_record_per_function(caller_and_callee):
    m, main, sq = caller_and_callee
    interp = Interpreter(m, record=[main, sq])
    assert interp.run("main", [1]) == 625
    outer, inner = interp.traces[main], interp.traces[sq]
    assert outer.invocations == 1 and inner.invocations == 2
    assert [b.name for b in outer.blocks] == ["entry"]
    assert [b and b.name for b in inner.blocks] == ["entry", None, "entry"]
    assert [op for op, _ in outer.memory] == ["load"]
    assert inner.memory == []
    # recording only the callee leaves the caller unrecorded
    only_sq = Interpreter(m, record=[sq])
    only_sq.run("main", [2])
    assert list(only_sq.traces) == [sq]
    assert only_sq.traces[sq].invocations == 2


def _countdown():
    """``down(n) = n <= 0 ? 0 : 1 + down(n - 1)``, recursively."""
    m = Module()
    fn = m.add_function("down", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry, base, rec = (b.add_block(n) for n in ("entry", "base", "rec"))
    b.set_block(entry)
    b.condbr(b.icmp("sle", fn.arg("n"), 0), base, rec)
    b.set_block(base)
    b.ret(0)
    b.set_block(rec)
    r = b.call(fn, [b.sub(fn.arg("n"), 1)])
    b.ret(b.add(r, 1))
    verify_function(fn)
    return m, fn


def test_recursion_into_recorded_function_raises():
    m, fn = _countdown()
    assert Interpreter(m).run("down", [5]) == 5
    interp = Interpreter(m, record=[fn])
    with pytest.raises(InterpreterError, match="recursive call to recorded function down"):
        interp.run("down", [5])
    # the failed activation does not stay active: a leaf run still records
    assert interp.run("down", [0]) == 0
    assert interp.traces[fn].invocations == 2


def test_division_semantics():
    m = Module()
    fn = m.add_function("divs", [("a", I32), ("b", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    q = b.sdiv(fn.arg("a"), fn.arg("b"))
    r = b.srem(fn.arg("a"), fn.arg("b"))
    out = b.mul(q, 1000)
    out = b.add(out, r)
    b.ret(out)
    interp = Interpreter(m)
    # C semantics: -7/2 = -3 rem -1
    assert interp.run("divs", [-7, 2]) == -3000 - 1
    assert interp.run("divs", [7, -2]) == -3000 + 1
    with pytest.raises(InterpreterError):
        interp.run("divs", [1, 0])


def test_float_ops():
    m = Module()
    fn = m.add_function("fp", [("x", F64)], F64)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    y = b.fmul(fn.arg("x"), 2.0)
    z = b.fadd(y, 1.0)
    s = b.unop("fsqrt", z, F64)
    b.ret(s)
    interp = Interpreter(m)
    assert interp.run("fp", [4.0]) == 3.0


def test_select_and_conversions():
    m = Module()
    fn = m.add_function("conv", [("a", I32)], F64)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    c = b.icmp("sgt", fn.arg("a"), 0)
    s = b.select(c, 10, 20)
    f = b.unop("sitofp", s, F64)
    b.ret(f)
    interp = Interpreter(m)
    assert interp.run("conv", [5]) == 10.0
    assert interp.run("conv", [-5]) == 20.0


def test_call_between_functions():
    m = Module()
    sq = m.add_function("square", [("x", I32)], I32)
    b = IRBuilder(sq)
    b.set_block(b.add_block("entry"))
    b.ret(b.mul(sq.arg("x"), sq.arg("x")))
    main = m.add_function("main", [("v", I32)], I32)
    b2 = IRBuilder(main)
    b2.set_block(b2.add_block("entry"))
    r = b2.call(sq, [main.arg("v")])
    b2.ret(b2.add(r, 1))
    interp = Interpreter(m)
    assert interp.run("main", [6]) == 37


def test_arity_mismatch_raises(diamond):
    m, _ = diamond
    with pytest.raises(InterpreterError):
        Interpreter(m).run("diamond", [1])


def test_alloca_scratch_space():
    m = Module()
    fn = m.add_function("scratch", [("v", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    buf = b.alloca(I32, 4)
    a1 = b.gep(buf, 2, 4)
    b.store(fn.arg("v"), a1)
    ld = b.load(I32, a1)
    b.ret(ld)
    interp = Interpreter(m)
    assert interp.run("scratch", [99]) == 99
