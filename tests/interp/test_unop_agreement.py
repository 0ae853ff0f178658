"""Folding, interpreting and executing agree on every unary op and cast.

Each case is one ``(opcode, source type, result type, constant)``.  The
interpreter runs ``f(x) = op x``; the frame executor runs the same
instruction as a one-block frame whose result is a live-out; the constant
folder sees ``op <constant>``.  The interpreter and the executor must give
the same value, or raise the same exception.  The folder must give that
value too, and may decline only a result that raises or is not finite.
The hypothesis test takes its example count from the active profile, so
``--hypothesis-profile fuzz`` runs it ten times longer.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.frames import FrameExecutor, build_frame
from repro.interp import Interpreter
from repro.ir import (
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    Constant,
    IRBuilder,
    Module,
    verify_function,
)
from repro.regions import Region
from repro.transforms import constant_fold

INTS = (I1, I8, I16, I32, I64)
FLOATS = (F32, F64)

#: opcode -> (source types, result types)
SIGNATURES = {
    "fneg": (FLOATS, FLOATS),
    "fabs": (FLOATS, FLOATS),
    "fsqrt": (FLOATS, FLOATS),
    "sitofp": (INTS, FLOATS),
    "fptosi": (FLOATS, INTS),
    "zext": (INTS, INTS),
    "sext": (INTS, INTS),
    "trunc": (INTS, INTS),
}


@st.composite
def cases(draw):
    opcode = draw(st.sampled_from(sorted(SIGNATURES)))
    sources, results = SIGNATURES[opcode]
    src = draw(st.sampled_from(sources))
    dst = draw(st.sampled_from(results))
    if src.is_float:
        value = draw(st.floats())
    else:
        value = src.wrap(draw(st.integers(-(1 << src.bits), 1 << src.bits)))
    return opcode, src, dst, value


def _canon(value):
    """``value`` with NaNs made equal to each other."""
    return "nan" if isinstance(value, float) and math.isnan(value) else value


def _outcome(run):
    try:
        return _canon(run())
    except Exception as exc:
        return type(exc), str(exc)


def _unop_function(opcode, src, dst, operand=None):
    """``f(x) = op x`` (``op operand`` when one is given), with the result
    read in a second block, so a frame over the first has it live out."""
    m = Module()
    fn = m.add_function("f", [("x", src)], dst)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    done = b.add_block("done")
    b.set_block(entry)
    r = b.unop(opcode, fn.arg("x") if operand is None else operand, dst, "r")
    b.br(done)
    b.set_block(done)
    b.ret(r)
    verify_function(fn)
    return m, fn, r


def interpreted(opcode, src, dst, value):
    m, fn, _ = _unop_function(opcode, src, dst)
    return _outcome(lambda: Interpreter(m).run(fn, [value]))


def executed(opcode, src, dst, value):
    m, fn, r = _unop_function(opcode, src, dst)
    entry = fn.blocks[0]
    frame = build_frame(Region(kind="bl-path", function=fn, blocks=[entry],
                               entry=entry, exit=entry))
    interp = Interpreter(m)
    executor = FrameExecutor(interp.memory, interp.global_base)
    return _outcome(
        lambda: executor.run(frame, {fn.arg("x"): value}).live_outs[r])


def folded(opcode, src, dst, value):
    """The folder's constant, or None when it declines."""
    _, fn, _ = _unop_function(opcode, src, dst, Constant(src, value))
    constant_fold(fn)
    ret = fn.blocks[1].terminator.value
    return _canon(ret.value) if isinstance(ret, Constant) else None


def assert_agree(opcode, src, dst, value):
    expected = interpreted(opcode, src, dst, value)
    assert executed(opcode, src, dst, value) == expected
    fold = folded(opcode, src, dst, value)
    if fold is None:
        declinable = (
            expected == "nan"
            or isinstance(expected, tuple)
            or (isinstance(expected, float) and math.isinf(expected))
        )
        assert declinable, expected
    else:
        assert fold == expected


@pytest.mark.fuzz
@settings(deadline=None)
@given(case=cases())
def test_fold_interpret_and_execute_agree_on_unary_ops(case):
    assert_agree(*case)


@pytest.mark.parametrize("case", [
    ("zext", I8, I32, -1),
    ("zext", I1, I64, 1),
    ("sext", I8, I32, -1),
    ("trunc", I32, I8, 300),
    ("fptosi", F64, I8, 300.7),
    ("fsqrt", F64, F64, -4.0),
    ("fptosi", F64, I32, math.inf),
])
def test_unary_op_corner_cases_agree(case):
    assert_agree(*case)
