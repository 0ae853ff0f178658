"""Reference evaluator for the interpreter's differential tests.

A deliberately plain evaluator: it dispatches on each instruction's class,
reads and writes ``env`` (keyed by IR value) per instruction, goes through
:meth:`Memory.read`/:meth:`Memory.write` for every access, records into a
:class:`FunctionTrace`, charges fuel per block, and raises the
interpreter's messages.  The opcode semantics are written out here again,
independently of the interpreter's templates.  Tests compare
:class:`~repro.interp.Interpreter` with it; nothing in ``src/`` uses it.

Its one ordering rule that is a choice rather than LLVM semantics: the φ
copies of edge B→C are made when control leaves B, so a missing or
undefined φ incoming raises before C is recorded.
"""

from __future__ import annotations

import math
import operator

from repro.interp import FuelExhausted, FunctionTrace, InterpreterError, Memory
from repro.ir.instructions import (
    Alloca, BinaryOp, Branch, Call, Compare, CondBranch, Gep, Load, Phi, Ret,
    Select, Store, UnaryOp,
)
from repro.ir.values import Constant, GlobalArray, UndefValue

_TERMINATORS = (Branch, CondBranch, Ret)


def _sdiv(a, b):
    if b == 0:
        raise InterpreterError("integer division by zero")
    quotient = abs(a) // abs(b)  # truncates toward zero
    return quotient if (a < 0) == (b < 0) else -quotient


def _srem(a, b):
    if b == 0:
        raise InterpreterError("integer remainder by zero")
    return a - b * _sdiv(a, b)


#: opcode -> f(a, b, bits) before the result type's wrap
BINOPS = {
    "add": lambda a, b, w: a + b, "sub": lambda a, b, w: a - b,
    "mul": lambda a, b, w: a * b, "sdiv": lambda a, b, w: _sdiv(a, b),
    "srem": lambda a, b, w: _srem(a, b), "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b, "xor": lambda a, b, w: a ^ b,
    "shl": lambda a, b, w: a << (b % 64),
    "lshr": lambda a, b, w: (a % (1 << w)) >> (b % 64),
    "ashr": lambda a, b, w: a >> (b % 64),
    "smin": lambda a, b, w: min(a, b), "smax": lambda a, b, w: max(a, b),
    "fadd": lambda a, b, w: a + b, "fsub": lambda a, b, w: a - b,
    "fmul": lambda a, b, w: a * b,
    "fdiv": lambda a, b, w: a / b if b != 0.0 else (
        math.inf if a >= 0 else -math.inf),
    "fmin": lambda a, b, w: min(a, b), "fmax": lambda a, b, w: max(a, b),
}

PREDICATES = {
    "eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
    "sle": operator.le, "sgt": operator.gt, "sge": operator.ge,
    "ult": lambda a, b: a % 2 ** 64 < b % 2 ** 64,
    "ugt": lambda a, b: a % 2 ** 64 > b % 2 ** 64,
    "oeq": operator.eq, "one": operator.ne, "olt": operator.lt,
    "ole": operator.le, "ogt": operator.gt, "oge": operator.ge,
}


class ReferenceEvaluator:
    """The interpreter's observable behaviour, one instruction at a time."""

    def __init__(self, module, record=(), fuel=50_000_000):
        self.module = module
        self.memory = Memory()
        self.traces = {fn: FunctionTrace(fn) for fn in record}
        self.fuel = fuel
        self.executed_instructions = 0
        self.global_base = {}
        self._active = set()
        self._plans = {}
        for g in module.globals.values():
            base = self.global_base[g] = self.memory.alloc(g.size_bytes)
            for i, v in enumerate(g.init or ()):
                self.memory.write(base + i * g.elem_type.size_bytes, g.elem_type, v)

    def run(self, fn, args=()):
        if isinstance(fn, str):
            fn = self.module.get_function(fn)
        if len(args) != len(fn.args):
            raise InterpreterError(
                "%s expects %d args, got %d" % (fn.name, len(fn.args), len(args)))
        env = {f: f.type.wrap(a) for f, a in zip(fn.args, args)}
        trace = self.traces.get(fn)
        if trace is None:
            return self._walk(fn, env, None)
        if fn in self._active:
            raise InterpreterError("recursive call to recorded function %s" % fn.name)
        trace.invocations += 1
        if trace.blocks:
            trace.blocks.append(None)
        self._active.add(fn)
        try:
            return self._walk(fn, env, trace)
        finally:
            self._active.discard(fn)

    def _get(self, value, env):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalArray):
            return self.global_base[value]
        if value in env:
            return env[value]
        if isinstance(value, UndefValue):
            return 0
        raise InterpreterError(
            "use of %s before definition" % getattr(value, "name", value))

    def _walk(self, fn, env, trace):
        prev, block = None, fn.entry
        while True:
            phis, body, term = self._plan(block)
            incoming = [phi.incoming_for(prev) for phi in phis]
            for phi, value in zip(phis, incoming):
                if value is None:
                    raise InterpreterError("phi %%%s in %s has no incoming for %s" % (
                        phi.name, block.name, prev.name if prev else "<entry>"))
            staged = [self._get(v, env) for v in incoming]
            env.update(zip(phis, staged))
            if trace is not None:
                trace.blocks.append(block)
            self.executed_instructions += len(body) + (term is not None)
            if self.executed_instructions > self.fuel:
                raise FuelExhausted("exceeded %d dynamic instructions" % self.fuel)
            for inst in body:
                self._step(inst, env, trace)
            if term is None:
                raise InterpreterError("block %s in %s fell through without a "
                                       "terminator" % (block.name, fn.name))
            if isinstance(term, Ret):
                return None if term.value is None else self._get(term.value, env)
            if isinstance(term, Branch):
                prev, block = block, term.target
            else:
                taken = self._get(term.cond, env)
                prev, block = block, term.true_target if taken else term.false_target

    def _plan(self, block):
        """(φs, non-terminators, terminator or None) of ``block``: what
        runs is every non-φ up to the first terminator."""
        plan = self._plans.get(block)
        if plan is None:
            body = []
            for inst in block.instructions:
                if not isinstance(inst, Phi):
                    body.append(inst)
                    if isinstance(inst, _TERMINATORS):
                        break
            term = body.pop() if body and isinstance(body[-1], _TERMINATORS) else None
            plan = self._plans[block] = (block.phis, body, term)
        return plan

    def _step(self, inst, env, trace):
        get = self._get
        ops = inst.operands
        if isinstance(inst, BinaryOp):
            a, b = get(ops[0], env), get(ops[1], env)
            env[inst] = inst.type.wrap(BINOPS[inst.opcode](a, b, inst.type.bits))
        elif isinstance(inst, Compare):
            a, b = get(ops[0], env), get(ops[1], env)
            env[inst] = 1 if PREDICATES[inst.predicate](a, b) else 0
        elif isinstance(inst, Load):
            addr = get(inst.address, env)
            if trace is not None:
                trace.memory.append(("load", addr))
            env[inst] = self.memory.read(addr, inst.type)
        elif isinstance(inst, Store):
            addr, value = get(inst.address, env), get(inst.value, env)
            if trace is not None:
                trace.memory.append(("store", addr))
            self.memory.write(addr, inst.value.type, value)
        elif isinstance(inst, Gep):
            env[inst] = get(inst.base, env) + get(inst.index, env) * inst.elem_size
        elif isinstance(inst, Select):
            env[inst] = get(ops[1] if get(ops[0], env) else ops[2], env)
        elif isinstance(inst, UnaryOp):
            a, op, t = get(ops[0], env), inst.opcode, inst.type
            if op == "fneg":
                env[inst] = -a
            elif op == "fabs":
                env[inst] = abs(a)
            elif op == "fsqrt":
                env[inst] = math.sqrt(a) if a >= 0 else math.nan
            elif op == "sitofp":
                env[inst] = float(a)
            elif op == "zext":
                env[inst] = t.wrap(a % (1 << ops[0].type.bits))
            else:  # fptosi, sext, trunc
                env[inst] = t.wrap(int(a))
        elif isinstance(inst, Alloca):
            env[inst] = self.memory.alloc(inst.size_bytes)
        elif isinstance(inst, Call):
            result = self.run(inst.callee, [get(a, env) for a in ops])
            if not inst.type.is_void:
                env[inst] = result
