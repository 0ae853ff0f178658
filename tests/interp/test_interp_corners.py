import gc
import weakref

import pytest

from repro.frames import FrameExecutor, build_frame
from repro.interp import Interpreter, InterpreterError, MemoryError_
from repro.ir import (
    Constant,
    F64,
    I8,
    I16,
    I32,
    I64,
    IRBuilder,
    Module,
    UndefValue,
    verify_function,
)
from repro.ir.instructions import ICMP_PREDICATES
from repro.regions import Region
from repro.transforms import constant_fold
from tests.interp.test_differential import assert_matches_reference


def test_undef_operand_reads_zero():
    m = Module()
    fn = m.add_function("f", [], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    x = b.add(UndefValue(I32), 5)
    b.ret(x)
    assert Interpreter(m).run("f", []) == 5


def test_executed_instruction_accounting(counted_loop):
    m, fn = counted_loop
    interp = Interpreter(m)
    interp.run("loop", [10])
    first = interp.executed_instructions
    interp.run("loop", [10])
    assert interp.executed_instructions == 2 * first


def test_phi_without_incoming_for_pred_raises():
    m = Module()
    fn = m.add_function("f", [], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    nxt = b.add_block("next")
    b.set_block(entry)
    b.br(nxt)
    b.set_block(nxt)
    phi = b.phi(I32)
    # deliberately give the phi a wrong incoming block
    phi.add_incoming(nxt, Constant(I32, 1))
    b.ret(phi)
    with pytest.raises(InterpreterError, match="no incoming"):
        Interpreter(m).run("f", [])


def test_address_of_unknown_global(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    with pytest.raises(KeyError):
        interp.address_of("missing")


def test_global_initializer_materialised(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    base = interp.address_of("data")
    assert interp.memory.read_array(base, I32, 4) == [0, 1, 2, 3]


def test_use_before_definition_raises():
    # %x is defined on one arm only and read after the join: malformed SSA
    # that the verifier rejects, so the interpreter must name the value
    m = Module()
    fn = m.add_function("f", [("c", I32)], I32)
    b = IRBuilder(fn)
    entry, define, skip, join = (b.add_block(n) for n in ("entry", "define", "skip", "join"))
    b.set_block(entry)
    b.condbr(b.icmp("ne", fn.arg("c"), 0), define, skip)
    b.set_block(define)
    x = b.add(fn.arg("c"), 1, name="x")
    b.br(join)
    b.set_block(skip)
    b.br(join)
    b.set_block(join)
    b.ret(b.mul(x, 2))
    assert Interpreter(m).run("f", [3]) == 8
    with pytest.raises(InterpreterError, match="^use of x before definition$"):
        Interpreter(m).run("f", [0])
    assert_matches_reference(m, fn, [[3], [0]])


def test_block_without_terminator_raises():
    m = Module()
    fn = m.add_function("f", [("a", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    b.add(fn.arg("a"), 1)
    with pytest.raises(
        InterpreterError,
        match="^block entry in f fell through without a terminator$",
    ):
        Interpreter(m).run("f", [1])
    assert_matches_reference(m, fn, [[1]])


#: (a, b) -> hand-computed ``lshr a, b`` at 8, 16, 32 and 64 bits: the
#: operand is read as unsigned at its own width, not at 64 bits
LSHR_CASES = {
    I8: [((-1, 1), 127), ((-16, 2), 60), ((-128, 7), 1), ((-1, 0), -1)],
    I16: [((-1, 1), 32767), ((-16, 2), 16380), ((-32768, 15), 1)],
    I32: [((-1, 1), 2147483647), ((-16, 2), 1073741820),
          ((-2147483648, 31), 1)],
    I64: [((-1, 1), 9223372036854775807), ((-16, 2), 4611686018427387900),
          ((-9223372036854775808, 63), 1)],
}


def _lshr_module(type_):
    """``f(a, b)`` stores ``lshr a, b`` to ``@out`` and returns it."""
    m = Module()
    out = m.add_global("out", type_, 1)
    fn = m.add_function("f", [("a", type_), ("b", type_)], type_)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    r = b.lshr(fn.arg("a"), fn.arg("b"))
    b.store(r, b.gep(out, 0, type_.size_bytes))
    b.ret(r)
    verify_function(fn)
    return m, fn


@pytest.mark.parametrize("type_", list(LSHR_CASES), ids=str)
def test_lshr_is_logical_at_every_width(type_):
    m, fn = _lshr_module(type_)
    for (a, s), expected in LSHR_CASES[type_]:
        # the interpreter
        assert Interpreter(m).run(fn, [a, s]) == expected
        # the frame executor, over the same single-block region
        interp = Interpreter(m)
        entry = fn.entry
        frame = build_frame(Region("bl-path", fn, [entry], entry, None))
        result = FrameExecutor(interp.memory, interp.global_base).run(
            frame, {fn.arg("a"): a, fn.arg("b"): s})
        assert result.success
        assert interp.memory.read(interp.address_of("out"), type_) == expected
        # the constant folder
        folded = Module()
        g = folded.add_function("g", [], type_)
        fb = IRBuilder(g)
        fb.set_block(fb.add_block("entry"))
        fb.ret(fb.lshr(Constant(type_, a), Constant(type_, s)))
        assert constant_fold(g) == 1
        assert g.entry.terminator.value.value == expected


def test_released_interpreter_is_freed_without_the_cycle_collector(
        caller_and_callee):
    m, main, _ = caller_and_callee
    gc.disable()
    try:
        interp = Interpreter(m, record=[main])
        assert interp.run(main, [1]) == 625  # a call, and a valued ret
        interp_ref = weakref.ref(interp)
        memory_ref = weakref.ref(interp.memory)
        del interp
        assert interp_ref() is None
        assert memory_ref() is None
    finally:
        gc.enable()


def test_ill_typed_values_wrap_like_the_reference():
    # the verifier does not check types: an i32 φ fed an i64 argument holds
    # an out-of-range value, and sext/trunc of a float truncate it first
    m = Module()
    fn = m.add_function("f", [("a", I64), ("x", F64)], I32)
    b = IRBuilder(fn)
    entry, body = b.add_block("entry"), b.add_block("body")
    b.set_block(entry)
    b.br(body)
    b.set_block(body)
    p = b.phi(I32, "p")
    p.add_incoming(entry, fn.arg("a"))
    q = b.phi(F64, "q")
    q.add_incoming(entry, fn.arg("a"))
    parts = [
        b.ashr(p, 1), b.and_(p, -2), b.and_(p, 7), b.or_(p, 0), b.xor(p, 1),
        b.smin(p, 5), b.smax(p, -5),
        b.unop("fptosi", b.fmin(q, 1.5e300), I32),
        b.unop("sext", fn.arg("x"), I32), b.unop("trunc", fn.arg("x"), I32),
    ]
    total = parts[0]
    for part in parts[1:]:
        total = b.xor(total, part)
    b.ret(total)
    for a in (2 ** 40 + 12345, -(2 ** 45) - 7, 3):
        assert_matches_reference(m, fn, [[a, -1234.75]])


@pytest.mark.parametrize("case", ["null load", "null store", "short load", "short store"])
def test_failed_memory_checks_raise_memory_errors(case):
    m = Module()
    g = m.add_global("g", I32, 2, init=[7, 8])
    fn = m.add_function("f", [("p", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    null = Constant(I64, 0)
    if case == "null load":
        b.ret(b.load(I32, b.gep(null, fn.arg("p"), 4)))
    elif case == "null store":
        b.store(fn.arg("p"), b.gep(null, fn.arg("p"), 4))
        b.ret(0)
    elif case == "short load":
        b.ret(b.unop("sext", b.load(I8, b.gep(g, 1, 4)), I32))
    else:
        b.store(Constant(I64, 5), b.gep(g, fn.arg("p"), 4))
        b.ret(0)
    with pytest.raises(MemoryError_):
        Interpreter(m).run(fn, [0])
    assert_matches_reference(m, fn, [[0]])


def test_select_reads_only_its_chosen_arm():
    # %x exists only when c != 0; the select reads it only then
    m = Module()
    fn = m.add_function("f", [("c", I32)], I32)
    b = IRBuilder(fn)
    entry, define, join = (b.add_block(n) for n in ("entry", "define", "join"))
    b.set_block(entry)
    cond = b.icmp("ne", fn.arg("c"), 0)
    b.condbr(cond, define, join)
    b.set_block(define)
    x = b.mul(fn.arg("c"), 3, name="x")
    b.br(join)
    b.set_block(join)
    b.ret(b.select(cond, x, 11))
    assert Interpreter(m).run(fn, [0]) == 11
    assert Interpreter(m).run(fn, [2]) == 6
    assert_matches_reference(m, fn, [[0], [2]])


@pytest.mark.parametrize("type_", [I8, I32, I64], ids=str)
def test_every_icmp_predicate_matches_reference(type_):
    m = Module()
    fn = m.add_function("f", [("a", type_), ("b", type_)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    bits = Constant(I32, 0)
    for i, pred in enumerate(sorted(ICMP_PREDICATES)):
        flag = b.unop("zext", b.icmp(pred, fn.arg("a"), fn.arg("b")), I32)
        bits = b.or_(bits, b.shl(flag, i))
    b.ret(bits)
    runs = [[-1, 1], [1, -1], [3, 3], [-5, -7], [0, -1]]
    interp = Interpreter(m)
    # ult/ugt read both operands as unsigned: -1 is the largest value
    assert interp.run(fn, [-1, 1]) & (1 << sorted(ICMP_PREDICATES).index("ugt"))
    assert_matches_reference(m, fn, runs)
