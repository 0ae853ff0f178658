"""Shared hypothesis inputs: random structured functions.

:class:`RandomFunctionBuilder` turns two integer lists into a function made
of nested constructs (sequence, if/else, while-loop), so its CFG is always
reducible.  The Ball–Larus, dominator and profile post-pass property tests
draw their functions from it.

With ``rich=True`` the same shapes carry the constructs the interpreter's
differential tests need: loads and stores over a global i32 array at
data-dependent masked indices, branches on loaded values, loop headers
whose φs swap on the back edge, every integer binop at i8/i32/i64 (non-zero
divisors, shift counts 0–70), every icmp predicate, ``select``,
``zext``/``sext``/``trunc``, and an f64 lane with division by ±0.0, inf and
NaN, square roots of negatives, ``sitofp`` and ``fptosi`` of bounded
values.
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from repro.ir import (
    Constant, F64, I8, I32, I64, IRBuilder, Module, verify_function,
)
from repro.ir.instructions import FCMP_PREDICATES, ICMP_PREDICATES, INT_BINOPS

_INT_OPS = sorted(INT_BINOPS)
_ICMPS = sorted(ICMP_PREDICATES)
_FCMPS = sorted(FCMP_PREDICATES)
_WIDTHS = (I8, I32, I64)
_SPECIAL_DIVISORS = (0.0, -0.0, math.inf, math.nan)
#: elements of the rich builder's global array
DATA_LEN = 16


class RandomFunctionBuilder:
    """Builds a random structured function from a shape seed."""

    def __init__(self, shapes, rng_values, rich=False):
        self.shapes = list(shapes)
        self.values = list(rng_values)
        self.rich = rich
        self._tail = random.Random(hash(tuple(self.values)))

    def _next_shape(self):
        return self.shapes.pop() if self.shapes else 0

    def _next_value(self):
        if self.values:
            return self.values.pop()
        if self.rich:  # a fixed pseudo-random tail once the values run out
            return self._tail.randrange(-(2 ** 40), 2 ** 40)
        return 1

    def build(self):
        m = Module("random")
        if self.rich:
            self.data = m.add_global(
                "data", I32, DATA_LEN,
                init=[self._next_value() for _ in range(DATA_LEN)])
        fn = m.add_function("f", [("a", I32), ("b", I32)], I32)
        b = IRBuilder(fn)
        entry = b.add_block("entry")
        b.set_block(entry)
        acc = b.add(fn.arg("a"), 0, name="acc0")
        acc = self._emit_region(fn, b, acc, depth=0)
        b.ret(acc)
        verify_function(fn)
        return m, fn

    def _emit_region(self, fn, b, acc, depth):
        n_stmts = 1 + self._next_shape() % 3
        for _ in range(n_stmts):
            kind = self._next_shape() % 4
            if depth >= 3:
                kind = 0
            if kind <= 1 and self.rich:
                acc = self._emit_statement(b, acc)
            elif kind <= 1:
                acc = b.add(acc, self._next_value() % 7 + 1)
            elif kind == 2:
                acc = self._emit_if(fn, b, acc, depth)
            else:
                acc = self._emit_loop(fn, b, acc, depth)
        return acc

    def _emit_if(self, fn, b, acc, depth):
        then = b.add_block("then")
        els = b.add_block("else")
        merge = b.add_block("merge")
        if self.rich:  # branch on loaded data
            cond = b.icmp(_ICMPS[self._next_value() % len(_ICMPS)],
                          self._load(b, acc), self._next_value())
        else:
            cond = b.icmp("slt", acc, self._next_value() % 100)
        b.condbr(cond, then, els)

        b.set_block(then)
        t_val = self._emit_region(fn, b, acc, depth + 1)
        t_end = b.block
        b.br(merge)

        b.set_block(els)
        e_val = b.mul(acc, 2)
        e_end = b.block
        b.br(merge)

        b.set_block(merge)
        phi = b.phi(I32)
        phi.add_incoming(t_end, t_val)
        phi.add_incoming(e_end, e_val)
        return phi

    def _emit_loop(self, fn, b, acc, depth):
        pre = b.block
        header = b.add_block("header")
        body = b.add_block("body")
        exit_ = b.add_block("exit")
        trip = self._next_value() % 4 + 1
        b.br(header)

        b.set_block(header)
        i = b.phi(I32, "i")
        a = b.phi(I32, "a")
        if self.rich:  # two φs that swap on every back edge
            x = b.phi(I32, "x")
            y = b.phi(I32, "y")
        cond = b.icmp("slt", i, trip)
        b.condbr(cond, body, exit_)

        b.set_block(body)
        new_acc = self._emit_region(fn, b, a, depth + 1)
        body_end = b.block
        i_next = b.add(i, 1)
        b.br(header)

        i.add_incoming(pre, Constant(I32, 0))
        i.add_incoming(body_end, i_next)
        a.add_incoming(pre, acc)
        a.add_incoming(body_end, new_acc)

        b.set_block(exit_)
        if self.rich:
            x.add_incoming(pre, acc)
            x.add_incoming(body_end, y)
            y.add_incoming(pre, Constant(I32, self._next_value()))
            y.add_incoming(body_end, x)
            return b.add(a, b.sub(x, y))
        return a

    # -- rich statements: each maps the i32 accumulator to a new one ---------

    def _emit_statement(self, b, acc):
        pick = self._next_value() % 8
        if pick <= 2:
            return self._emit_int_op(b, acc)
        if pick == 3:
            cond = b.icmp(_ICMPS[self._next_value() % len(_ICMPS)],
                          acc, self._next_value())
            chosen = b.select(cond, b.add(acc, 3), b.xor(acc, self._next_value()))
            return b.add(chosen, b.unop("zext", cond, I32))
        if pick == 4:
            return b.xor(acc, self._load(b, acc))
        if pick == 5:
            index = b.and_(b.ashr(acc, self._next_value() % 8), DATA_LEN - 1)
            b.store(b.mul(acc, 3), b.gep(self.data, index, 4))
            return acc
        if pick == 6:
            return self._emit_float(b, acc)
        return b.add(acc, self._next_value() % 7 + 1)

    def _load(self, b, acc):
        index = b.and_(acc, DATA_LEN - 1)
        return b.load(I32, b.gep(self.data, index, 4))

    def _emit_int_op(self, b, acc):
        width = _WIDTHS[self._next_value() % len(_WIDTHS)]
        if width is I8:
            x = b.unop("trunc", acc, I8)
        elif width is I64:
            x = b.unop("sext", acc, I64)
        else:
            x = acc
        op = _INT_OPS[self._next_value() % len(_INT_OPS)]
        v = self._next_value()
        if op in ("shl", "lshr", "ashr"):
            y = Constant(width, v % 71) if v % 2 else b.and_(x, Constant(width, 127))
        elif op in ("sdiv", "srem"):
            y = b.or_(b.xor(x, Constant(width, v)), Constant(width, 1))
        else:
            y = Constant(width, v) if v % 2 else x
        r = b.binop(op, x, y)
        if width is I8:
            return b.unop("zext" if v % 3 == 0 else "sext", r, I32)
        if width is I64:
            return b.unop("trunc", r, I32)
        return r

    def _emit_float(self, b, acc):
        f = b.unop("sitofp", acc, F64)
        divisors = _SPECIAL_DIVISORS + (float(self._next_value() % 9 - 4),) * 3
        q = b.fdiv(f, Constant(F64, divisors[self._next_value() % len(divisors)]))
        root = b.unop("fsqrt", b.fsub(q, float(self._next_value() % 50)), F64)
        mixed = b.fmax(b.fmin(root, q), b.unop("fabs", b.unop("fneg", f, F64), F64))
        cond = b.fcmp(_FCMPS[self._next_value() % len(_FCMPS)], mixed,
                      float(self._next_value() % 20))
        acc = b.select(cond, acc, b.add(acc, 1))
        bounded = b.fmul(b.unop("sitofp", b.and_(acc, 1023), F64), 0.5)
        return b.add(acc, b.unop("fptosi", b.fadd(bounded, 1.0), I32))


shapes_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=24)
values_strategy = st.lists(st.integers(0, 99), min_size=1, max_size=24)
#: shapes whose function opens with two loops, each around an if: run with
#: several inputs, a loop's iterations take both arms, and the paths from
#: its header to its latch merge into a multi-path braid (the shapes are
#: popped from the end)
braid_shapes_strategy = shapes_strategy.map(
    lambda shapes: shapes + [2, 0, 3, 0, 0, 2, 0, 3, 1])
#: the rich builder's values double as i8/i32/i64 constants
rich_values_strategy = st.lists(
    st.integers(-(2 ** 40), 2 ** 40), min_size=1, max_size=64)
