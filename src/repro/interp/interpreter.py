"""Concrete interpreter for the mini IR.

Executes modules with LLVM-like semantics (two's-complement integers,
truncating division, parallel φ copies).  This is the stand-in for native
execution of the instrumented benchmark binaries in the paper's toolchain.

For each function named in ``record=``, the interpreter appends every
executed block and every ``(opcode, address)`` memory event straight into
that function's :class:`~repro.interp.events.FunctionTrace`.  Path, edge
and op-mix profiles are derived from the trace after the run (``from_trace``
on each profile class), so the hot loop carries no profiling logic.

Execution is *closure-compiled*: the first time a function runs, every
instruction is compiled once into a small Python closure ("thunk") with its
operand accessors, opcode implementation and result slot pre-bound, and
each block becomes (φ-copy plan, body thunk list, terminator thunk).  The
hot loop then just walks thunk lists — no per-instruction ``isinstance``
dispatch, no opcode table lookups.  Compiled code is cached per interpreter
instance (thunks close over this interpreter's memory, trace lists and
global addresses), which is the right granularity: one profiling run
executes each instruction thousands of times but compiles it once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Compare,
    CondBranch,
    Gep,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    UnaryOp,
)
from ..ir.module import Module
from ..ir.values import Constant, GlobalArray, UndefValue, Value
from ..obs import counter as _obs_counter, enabled as _obs_enabled
from ..resilience.faults import (
    SITE_INTERP_RUN,
    FaultInjected,
    consult as _flt_consult,
    enabled as _flt_enabled,
)
from .events import FunctionTrace
from .memory import Memory


class InterpreterError(Exception):
    """Semantic error during execution (div by zero, bad call...)."""


class FuelExhausted(InterpreterError):
    """The run exceeded its dynamic-instruction budget."""


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer remainder by zero")
    return a - _sdiv(a, b) * b


_INT_BINOP_FNS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sdiv": _sdiv,
    "srem": _srem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "lshr": lambda a, b: (a & ((1 << 64) - 1)) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
    "smin": min,
    "smax": max,
}

_FP_BINOP_FNS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0.0 else math.inf * (1 if a >= 0 else -1),
    "fmin": min,
    "fmax": max,
}

_ICMP_FNS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: (a & ((1 << 64) - 1)) < (b & ((1 << 64) - 1)),
    "ugt": lambda a, b: (a & ((1 << 64) - 1)) > (b & ((1 << 64) - 1)),
}

_FCMP_FNS = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


def _ignore(item) -> None:
    """The record sink of functions that are not recorded."""


class Interpreter:
    """Executes functions of one module over a shared :class:`Memory`.

    ``record`` names the functions whose executions are kept in
    :attr:`traces`; every :meth:`run` appends to the same traces, so
    repeated runs accumulate into one record.
    """

    def __init__(
        self,
        module: Module,
        record: Sequence[Function] = (),
        fuel: int = 50_000_000,
    ):
        self.module = module
        self.memory = Memory()
        #: one trace per recorded function, filled as the functions run
        self.traces: Dict[Function, FunctionTrace] = {
            fn: FunctionTrace(fn) for fn in record
        }
        #: recorded functions with an activation in progress
        self._active: Set[Function] = set()
        self.fuel = fuel
        self.executed_instructions = 0
        self.global_base: Dict[GlobalArray, int] = {}
        #: per-function compiled code: block -> (phi_plan, body, term, n_insts)
        self._compiled: Dict[Function, Dict[BasicBlock, tuple]] = {}
        #: return-value cell written by Ret thunks; read immediately after a
        #: terminator signals return, before any other block executes, so
        #: recursive calls cannot clobber a pending value
        self._ret = None
        self._materialise_globals()

    # -- setup -----------------------------------------------------------------

    def _materialise_globals(self) -> None:
        for g in self.module.globals.values():
            base = self.memory.alloc(g.size_bytes)
            self.global_base[g] = base
            if g.init is not None:
                self.memory.write_array(base, g.elem_type, g.init)

    def address_of(self, global_name: str) -> int:
        """Base address of a module global (for writing inputs)."""
        return self.global_base[self.module.get_global(global_name)]

    # -- execution ---------------------------------------------------------------

    def run(self, fn: "Function | str", args: Sequence = ()):
        """Execute ``fn`` with ``args``; returns the function's return value.

        Observability is charged here, at the run boundary, never inside
        the thunk loop: when :mod:`repro.obs` is enabled the aggregate
        instruction count of the whole run is published as one counter
        increment, so the hot loop carries zero instrumentation cost.
        """
        if isinstance(fn, str):
            fn = self.module.get_function(fn)
        # chaos site at the run boundary (never inside the thunk loop):
        # proves profiling failures surface as clean workload failures
        if _flt_enabled():
            spec = _flt_consult(SITE_INTERP_RUN, fn.name)
            if spec is not None:
                raise FaultInjected(
                    "injected interpreter fault running %s" % fn.name
                )
        before = self.executed_instructions
        result = self._run_function(fn, list(args))
        if _obs_enabled():
            _obs_counter("interp.runtime.instructions",
                         self.executed_instructions - before,
                         help="instructions executed by live interpreter runs",
                         function=fn.name)
            _obs_counter("interp.runtime.runs", 1,
                         help="top-level interpreter runs", function=fn.name)
        return result

    def _run_function(self, fn: Function, args: List):
        if len(args) != len(fn.args):
            raise InterpreterError(
                "%s expects %d args, got %d" % (fn.name, len(fn.args), len(args))
            )
        env: Dict[Value, object] = {}
        for formal, actual in zip(fn.args, args):
            env[formal] = formal.type.wrap(actual)

        compiled = self._compiled.get(fn)
        if compiled is None:
            compiled = self._compile_function(fn)
            self._compiled[fn] = compiled

        trace = self.traces.get(fn)
        if trace is None:
            return self._execute(compiled, fn.entry, env, _ignore)
        # one trace holds one activation at a time: a recursive activation
        # would interleave its blocks with its caller's
        if fn in self._active:
            raise InterpreterError(
                "recursive call to recorded function %s" % fn.name
            )
        trace.invocations += 1
        if trace.blocks:
            trace.blocks.append(None)
        self._active.add(fn)
        try:
            return self._execute(compiled, fn.entry, env, trace.blocks.append)
        finally:
            self._active.discard(fn)

    def _execute(self, compiled, block: BasicBlock, env, record):
        """Walk compiled blocks from ``block`` until a return, passing each
        block to ``record`` before it runs."""
        fuel = self.fuel
        prev: Optional[BasicBlock] = None
        while True:
            record(block)
            phi_plan, body, term, n_insts = compiled[block]

            # φ-nodes: parallel copy from the incoming edge
            if phi_plan is not None:
                plan = phi_plan.get(prev)
                if plan is None:
                    self._raise_missing_phi(block, prev)
                if len(plan) == 1:
                    phi, getter = plan[0]
                    env[phi] = getter(env)
                else:
                    staged = [getter(env) for _, getter in plan]
                    for (phi, _), v in zip(plan, staged):
                        env[phi] = v

            # fuel is charged per block (body + terminator); the run aborts
            # before executing the block that would exceed the budget, so
            # completed runs count exactly as many instructions as before
            self.executed_instructions += n_insts
            if self.executed_instructions > fuel:
                raise FuelExhausted(
                    "exceeded %d dynamic instructions" % self.fuel
                )

            for step in body:
                step(env)
            next_block = term(env)
            if next_block is None:
                return self._ret
            prev, block = block, next_block

    # -- closure compilation -------------------------------------------------

    def _raise_missing_phi(self, block: BasicBlock, prev: Optional[BasicBlock]):
        for phi in block.phis:
            if phi.incoming_for(prev) is None:
                raise InterpreterError(
                    "phi %%%s in %s has no incoming for %s"
                    % (phi.name, block.name, prev.name if prev else "<entry>")
                )
        raise InterpreterError(  # pragma: no cover - defensive
            "no φ-copy plan for edge %s -> %s"
            % (prev.name if prev else "<entry>", block.name)
        )

    def _compile_getter(self, value: Value):
        """An ``env -> runtime value`` accessor with constants pre-folded."""
        if isinstance(value, Constant):
            const = value.value
            return lambda env: const
        if isinstance(value, GlobalArray):
            base = self.global_base[value]
            return lambda env: base
        if isinstance(value, UndefValue):
            return lambda env: 0

        def get(env, _v=value):
            try:
                return env[_v]
            except KeyError:
                raise InterpreterError(
                    "use of %s before definition" % getattr(_v, "name", _v)
                ) from None

        return get

    def _compile_function(self, fn: Function) -> Dict[BasicBlock, tuple]:
        return {block: self._compile_block(fn, block) for block in fn.blocks}

    def _compile_block(self, fn: Function, block: BasicBlock) -> tuple:
        getter = self._compile_getter

        # φ-copy plans, one per incoming edge (only edges where every φ has
        # an incoming value; others fall through to the error path)
        phis = block.phis
        phi_plan = None
        if phis:
            phi_plan = {}
            preds = []
            for phi in phis:
                for pred, _val in phi.incoming:
                    if pred not in preds:
                        preds.append(pred)
            for pred in preds:
                incoming = [phi.incoming_for(pred) for phi in phis]
                if any(v is None for v in incoming):
                    continue
                phi_plan[pred] = [
                    (phi, getter(val)) for phi, val in zip(phis, incoming)
                ]

        body = []
        term = None
        n_insts = 0
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            n_insts += 1
            if isinstance(inst, (CondBranch, Branch, Ret)):
                term = self._compile_terminator(inst)
                break
            body.append(self._compile_step(fn, inst))
        if term is None:
            def term(env, _b=block, _f=fn):
                raise InterpreterError(
                    "block %s in %s fell through without a terminator"
                    % (_b.name, _f.name)
                )

        return phi_plan, body, term, n_insts

    def _compile_terminator(self, inst):
        if isinstance(inst, CondBranch):
            get_cond = self._compile_getter(inst.cond)
            true_t, false_t = inst.true_target, inst.false_target
            return lambda env: true_t if get_cond(env) else false_t
        if isinstance(inst, Branch):
            target = inst.target
            return lambda env: target
        # Ret: stash the value, signal return with None
        get_val = (
            self._compile_getter(inst.value) if inst.value is not None else None
        )

        def term(env):
            self._ret = get_val(env) if get_val is not None else None
            return None

        return term

    def _compile_step(self, fn: Function, inst: Instruction):
        """Compile one non-terminator instruction into an ``env -> None``
        thunk with operands, opcode implementation and record sink
        pre-bound."""
        getter = self._compile_getter
        if isinstance(inst, BinaryOp):
            ga = getter(inst.operands[0])
            gb = getter(inst.operands[1])
            op_fn = _INT_BINOP_FNS.get(inst.opcode) or _FP_BINOP_FNS[inst.opcode]
            t = inst.type
            # inline Type.wrap's normalisation: it runs once per dynamic
            # binary op, the single hottest site in a profiling run
            if t.is_float:
                def step(env):
                    env[inst] = float(op_fn(ga(env), gb(env)))
            elif t.is_ptr:
                ptr_mask = (1 << 64) - 1

                def step(env):
                    env[inst] = op_fn(ga(env), gb(env)) & ptr_mask
            elif t.is_int and t.bits > 1:
                mask = (1 << t.bits) - 1
                sign = 1 << (t.bits - 1)

                def step(env):
                    env[inst] = ((op_fn(ga(env), gb(env)) & mask) ^ sign) - sign
            else:
                wrap = t.wrap

                def step(env):
                    env[inst] = wrap(op_fn(ga(env), gb(env)))

            return step
        if isinstance(inst, Compare):
            ga = getter(inst.operands[0])
            gb = getter(inst.operands[1])
            table = _ICMP_FNS if inst.opcode == "icmp" else _FCMP_FNS
            cmp_fn = table[inst.predicate]

            def step(env):
                env[inst] = 1 if cmp_fn(ga(env), gb(env)) else 0

            return step
        if isinstance(inst, Load):
            get_addr = getter(inst.address)
            read = self.memory.read
            record = self._memory_record(fn)
            load_type = inst.type

            def step(env):
                addr = get_addr(env)
                record(("load", addr))
                env[inst] = read(addr, load_type)

            return step
        if isinstance(inst, Store):
            get_addr = getter(inst.address)
            get_val = getter(inst.value)
            write = self.memory.write
            record = self._memory_record(fn)
            store_type = inst.value.type

            def step(env):
                addr = get_addr(env)
                val = get_val(env)
                record(("store", addr))
                write(addr, store_type, val)

            return step
        if isinstance(inst, Gep):
            get_base = getter(inst.base)
            get_index = getter(inst.index)
            elem_size = inst.elem_size

            def step(env):
                env[inst] = get_base(env) + get_index(env) * elem_size

            return step
        if isinstance(inst, Select):
            get_cond = getter(inst.operands[0])
            get_true = getter(inst.operands[1])
            get_false = getter(inst.operands[2])

            def step(env):
                # only the chosen arm is evaluated (matches the slow path)
                env[inst] = get_true(env) if get_cond(env) else get_false(env)

            return step
        if isinstance(inst, UnaryOp):
            return self._compile_unop(inst)
        if isinstance(inst, Alloca):
            alloc = self.memory.alloc
            size = inst.size_bytes

            def step(env):
                env[inst] = alloc(size)

            return step
        if isinstance(inst, Call):
            getters = [getter(a) for a in inst.operands]
            callee = inst.callee
            run = self._run_function
            is_void = inst.type.is_void

            def step(env):
                result = run(callee, [g(env) for g in getters])
                if not is_void:
                    env[inst] = result

            return step

        def step(env):  # pragma: no cover - inventory is closed
            raise InterpreterError("cannot execute opcode %r" % inst.opcode)

        return step

    def _memory_record(self, fn: Function):
        trace = self.traces.get(fn)
        return trace.memory.append if trace is not None else _ignore

    def _compile_unop(self, inst: UnaryOp):
        ga = self._compile_getter(inst.operands[0])
        op = inst.opcode
        if op == "fneg":
            def step(env):
                env[inst] = -ga(env)
        elif op == "fabs":
            def step(env):
                env[inst] = abs(ga(env))
        elif op == "fsqrt":
            def step(env):
                a = ga(env)
                env[inst] = math.sqrt(a) if a >= 0 else float("nan")
        elif op == "sitofp":
            def step(env):
                env[inst] = float(ga(env))
        elif op == "fptosi":
            wrap = inst.type.wrap

            def step(env):
                env[inst] = wrap(int(ga(env)))
        elif op == "zext":
            wrap = inst.type.wrap
            mask = (1 << inst.operands[0].type.bits) - 1

            def step(env):
                env[inst] = wrap(ga(env) & mask)
        elif op in ("sext", "trunc"):
            wrap = inst.type.wrap

            def step(env):
                env[inst] = wrap(ga(env))
        else:
            def step(env):  # pragma: no cover - inventory is closed
                raise InterpreterError("cannot execute unop %r" % op)
        return step
