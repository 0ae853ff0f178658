"""Shared hypothesis inputs: random structured functions.

:class:`RandomFunctionBuilder` turns two integer lists into a function made
of nested constructs (sequence, if/else, while-loop), so its CFG is always
reducible.  The Ball–Larus, dominator and profile post-pass property tests
draw their functions from it.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import Constant, I32, IRBuilder, Module, verify_function


class RandomFunctionBuilder:
    """Builds a random structured function from a shape seed."""

    def __init__(self, shapes, rng_values):
        self.shapes = list(shapes)
        self.values = list(rng_values)

    def _next_shape(self):
        return self.shapes.pop() if self.shapes else 0

    def _next_value(self):
        return self.values.pop() if self.values else 1

    def build(self):
        m = Module("random")
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
            if kind <= 1:
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
        return a


shapes_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=24)
values_strategy = st.lists(st.integers(0, 99), min_size=1, max_size=24)
