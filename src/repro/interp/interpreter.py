"""Concrete interpreter for the mini IR.

Executes modules with LLVM-like semantics (two's-complement integers,
truncating division, parallel φ copies).  This is the stand-in for native
execution of the instrumented benchmark binaries in the paper's toolchain.

For each function named in ``record=``, the interpreter appends every
executed block and every ``(opcode, address)`` memory event straight into
that function's :class:`~repro.interp.events.FunctionTrace`.  Path, edge
and op-mix profiles are derived from the trace after the run (``from_trace``
on each profile class), so the hot loop carries no profiling logic.

Execution runs *generated code*.  The first time a function runs on an
interpreter, each basic block is written out as one Python function, and
the function's source goes through one ``compile()`` call.  A block
function runs the block's body and terminator and returns the next block,
or ``None`` on return.  Values that never leave their block are Python
locals; ``env`` holds only arguments, φs and values that another block (or
a φ edge leaving another block) reads, under a small integer slot.  The φ
copies of edge B→C run in B's terminator as one parallel assignment, so
they finish before C is recorded.  Constants, global addresses and each
result type's wrap are inlined, and loads and stores reach the memory's
cells directly, calling :meth:`Memory.read`/:meth:`Memory.write` only when
a check fails.  The dispatch loop records each block, charges its
instruction count against the fuel, and calls its function.

Each opcode's semantics is stated once, as an expression template in
:data:`_BINOP_EXPR`, :data:`_CMP_EXPR` and :data:`_UNOP_EXPR`: the
generator emits from it, and :func:`binop_fn`/:func:`compare_fn`/
:func:`unop_fn` build the callables the frame executor and the constant
folder evaluate with.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
from ..ir.types import Type
from ..ir.values import Constant, GlobalArray, UndefValue, Value
from ..obs import (
    counter as _obs_counter,
    enabled as _obs_enabled,
    span as _obs_span,
)
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


def _fdiv(a, b):
    return a / b if b != 0.0 else math.inf * (1 if a >= 0 else -1)


_U64 = (1 << 64) - 1

#: Each binary opcode's semantics, once: a Python expression over the
#: operands ``{a}`` and ``{b}`` (always atoms) and, for ``lshr``, the
#: operand type's bit mask ``{m}``.  The result is unwrapped; the result
#: type's wrap is applied around it.
_BINOP_EXPR = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "sdiv": "_sdiv({a}, {b})",
    "srem": "_srem({a}, {b})",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "{a} << ({b} & 63)",
    "lshr": "({a} & {m}) >> ({b} & 63)",
    "ashr": "{a} >> ({b} & 63)",
    "smin": "min({a}, {b})",
    "smax": "max({a}, {b})",
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
    "fmin": "min({a}, {b})",
    "fmax": "max({a}, {b})",
}

#: Each comparison's semantics, once, keyed by (opcode, predicate).
_CMP_EXPR = {
    ("icmp", "eq"): "{a} == {b}",
    ("icmp", "ne"): "{a} != {b}",
    ("icmp", "slt"): "{a} < {b}",
    ("icmp", "sle"): "{a} <= {b}",
    ("icmp", "sgt"): "{a} > {b}",
    ("icmp", "sge"): "{a} >= {b}",
    ("icmp", "ult"): "({a} & _U64) < ({b} & _U64)",
    ("icmp", "ugt"): "({a} & _U64) > ({b} & _U64)",
    ("fcmp", "oeq"): "{a} == {b}",
    ("fcmp", "one"): "{a} != {b}",
    ("fcmp", "olt"): "{a} < {b}",
    ("fcmp", "ole"): "{a} <= {b}",
    ("fcmp", "ogt"): "{a} > {b}",
    ("fcmp", "oge"): "{a} >= {b}",
}

#: Each unary opcode's and cast's semantics, once: a Python expression
#: over the operand ``{a}`` (an atom) and, for ``zext``, the source type's
#: bit mask ``{m}``.  A float result is the expression itself; an integer
#: or pointer result gets the result type's wrap around it.
_UNOP_EXPR = {
    "fneg": "-{a}",
    "fabs": "abs({a})",
    "fsqrt": "_sqrt({a}) if {a} >= 0 else float('nan')",
    "sitofp": "float({a})",
    "fptosi": "int({a})",
    "zext": "({a} & {m})",
    "sext": "int({a})",
    "trunc": "int({a})",
}

#: the helpers and constants the templates and generated code refer to
_RUNTIME = {
    "_sdiv": _sdiv,
    "_srem": _srem,
    "_fdiv": _fdiv,
    "_sqrt": math.sqrt,
    "_U64": _U64,
    "_IE": InterpreterError,
}


def _binop_source(opcode: str, type_: Type, a: str, b: str) -> str:
    return _BINOP_EXPR[opcode].format(a=a, b=b, m=(1 << type_.bits) - 1)


def _wrap_source(type_: Type, expr: str, coerce: bool = True) -> str:
    """``type_.wrap(expr)`` inlined, for a non-void ``type_``.
    ``coerce=False`` leaves out the ``int()`` of an integer or pointer
    wrap."""
    if type_.is_float:
        return "float(%s)" % expr
    if coerce:
        expr = "int(%s)" % expr
    if type_.is_ptr:
        return "(%s & %d)" % (expr, _U64)
    if type_.bits == 1:
        return "(%s & 1)" % expr
    sign = 1 << (type_.bits - 1)
    return "(((%s & %d) ^ %d) - %d)" % (expr, 2 * sign - 1, sign, sign)


def _unop_source(opcode: str, src: Type, dst: Type, a: str) -> str:
    expr = _UNOP_EXPR[opcode].format(a=a, m=(1 << src.bits) - 1)
    return expr if dst.is_float else _wrap_source(dst, expr, coerce=False)


@lru_cache(maxsize=None)
def binop_fn(opcode: str, type_: Type):
    """``(a, b) -> unwrapped result`` of a binary opcode at ``type_``,
    built from its template."""
    return eval("lambda a, b: " + _binop_source(opcode, type_, "a", "b"),
                dict(_RUNTIME))


@lru_cache(maxsize=None)
def compare_fn(opcode: str, predicate: str):
    """``(a, b) -> bool`` of a comparison, built from its template."""
    return eval("lambda a, b: " + _CMP_EXPR[opcode, predicate].format(
        a="a", b="b"), dict(_RUNTIME))


@lru_cache(maxsize=None)
def unop_fn(opcode: str, src: Type, dst: Type):
    """``a -> result`` of a unary opcode or cast from ``src`` to ``dst``,
    built from its template, the result type's wrap included."""
    return eval("lambda a: " + _unop_source(opcode, src, dst, "a"),
                dict(_RUNTIME))


def _ignore(item) -> None:
    """The record sink of functions that are not recorded."""


_TERMINATORS = (CondBranch, Branch, Ret)


def _missing_phi_message(block: BasicBlock, prev: Optional[BasicBlock]):
    """The error of entering ``block`` from ``prev``, or None when every φ
    of ``block`` has an incoming value for ``prev``."""
    for phi in block.phis:
        if phi.incoming_for(prev) is None:
            return "phi %%%s in %s has no incoming for %s" % (
                phi.name, block.name, prev.name if prev else "<entry>")
    return None


class _FunctionSource:
    """Writes one function's block functions as Python source.

    Everything an interpreter fixes is bound into the source's namespace
    (global addresses, the memory's cells and bound methods, the trace's
    memory sink), never the interpreter itself: a block function that
    needs it (a call, a return) takes it as its ``it`` argument.
    """

    def __init__(self, fn: Function, interp: "Interpreter"):
        self.fn = fn
        self.global_base = interp.global_base
        memory = interp.memory
        self.ns = dict(_RUNTIME, _cells=memory._cells, _read=memory.read,
                       _write=memory.write, _alloc=memory.alloc)
        trace = interp.traces.get(fn)
        if trace is not None:
            self.ns["_mem"] = trace.memory.append
        self.records_memory = trace is not None
        self._bound: Dict[int, str] = {}
        #: env slot of each value kept in env; arguments come first
        self.slots: Dict[Value, int] = {arg: i for i, arg in enumerate(fn.args)}
        #: executed instructions of each block: non-φs through the first
        #: terminator
        self.body: Dict[BasicBlock, List[Instruction]] = {}
        self._analyse()

    # -- which values live in env ---------------------------------------------

    def _analyse(self) -> None:
        """Fill :attr:`body`, and give an env slot to every value read
        outside its block or before its definition."""
        where = {}
        for block in self.fn.blocks:
            insts = []
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                insts.append(inst)
                if isinstance(inst, _TERMINATORS):
                    break
            self.body[block] = insts
            for i, inst in enumerate(insts):
                if _defines(inst):
                    where[inst] = (block, i)

        def use(value, block, pos):
            if not isinstance(value, Instruction):
                return
            site = where.get(value)
            if site is None or site[0] is not block or site[1] >= pos:
                self.slot(value)

        for block, insts in self.body.items():
            for i, inst in enumerate(insts):
                for op in inst.operands:
                    use(op, block, i)
            term = insts[-1] if insts else None
            for succ in term.successors if isinstance(term, _TERMINATORS) else ():
                for phi in succ.phis:
                    value = phi.incoming_for(block)
                    if value is not None:
                        use(value, block, len(insts))

    def slot(self, value: Value) -> int:
        slot = self.slots.get(value)
        if slot is None:
            slot = self.slots[value] = len(self.slots)
        return slot

    def bind(self, obj, prefix: str) -> str:
        """A namespace name for ``obj`` (a block, type, callee...)."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = "_%s%d" % (prefix, len(self._bound))
            self.ns[name] = obj
        return name

    # -- source ------------------------------------------------------------------

    def render(self) -> str:
        """The module source: ``_enter`` (the function-start edge) and one
        ``_b<i>`` per block, in ``fn.blocks`` order."""
        self.lines: List[str] = ["def _enter(env, it):"]
        self.names: Dict[Value, str] = {}
        self._edge(None, self.fn.entry, "    ")
        for index, block in enumerate(self.fn.blocks):
            self.lines.append("def _b%d(env, it):" % index)
            self.names = {}
            self.defined = 0
            self._block(block)
        return "\n".join(self.lines) + "\n"

    def _emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def ref(self, value: Value, hoist: bool = True) -> str:
        """An atom reading ``value``.  An env value read with ``hoist`` is
        loaded into a local once, right here, and reused by the rest of the
        block; without it (a ``select`` arm, a φ copy) the read stays where
        it is, so it runs only on that path."""
        if isinstance(value, Constant):
            v = value.value
            if isinstance(v, float) and not math.isfinite(v):
                return self.bind(v, "k")
            return repr(v) if repr(v)[0] != "-" else "(%r)" % v
        if isinstance(value, GlobalArray):
            return repr(self.global_base[value])
        if isinstance(value, UndefValue):
            return "0"
        name = self.names.get(value)
        if name is not None:
            return name
        read = "env[%d]" % self.slot(value)
        if not hoist:
            return read
        name = self.names[value] = "s%d" % self.slot(value)
        self._emit("%s = %s" % (name, read))
        return name

    def _local(self, atom: str) -> str:
        """``atom`` as a name: each memory event must be a fresh tuple,
        which a literal address would fold into one shared constant."""
        if atom.isidentifier():
            return atom
        self._emit("a = %s" % atom)
        return "a"

    def _define(self, inst: Instruction, expr: str) -> None:
        self.defined += 1
        name = self.names[inst] = "v%d" % self.defined
        self._emit("%s = %s" % (name, expr))
        if inst in self.slots:
            self._emit("env[%d] = %s" % (self.slots[inst], name))

    def _wrap(self, type_: Type, expr: str, coerce: bool = True) -> str:
        """:func:`_wrap_source`, or a call that raises for void."""
        if type_.is_void:
            return "%s.wrap(%s)" % (self.bind(type_, "T"), expr)
        return _wrap_source(type_, expr, coerce)

    def _block(self, block: BasicBlock) -> None:
        for inst in self.body[block]:
            if isinstance(inst, _TERMINATORS):
                self._terminator(block, inst)
                return
            self._instruction(inst)
        self._emit("raise _IE(%r)" % (
            "block %s in %s fell through without a terminator"
            % (block.name, self.fn.name)))

    def _instruction(self, inst: Instruction) -> None:
        if isinstance(inst, BinaryOp):
            a = self.ref(inst.operands[0])
            b = self.ref(inst.operands[1])
            expr = "(%s)" % _binop_source(inst.opcode, inst.type, a, b)
            t = inst.type
            # integer and pointer results are masked as they are; only an
            # i1 result goes through the whole of Type.wrap
            coerce = not (t.is_ptr or (t.is_int and t.bits > 1))
            self._define(inst, self._wrap(t, expr, coerce))
        elif isinstance(inst, Compare):
            a = self.ref(inst.operands[0])
            b = self.ref(inst.operands[1])
            self._define(inst, "1 if %s else 0" % _CMP_EXPR[
                inst.opcode, inst.predicate].format(a=a, b=b))
        elif isinstance(inst, Load):
            addr = self._local(self.ref(inst.address))
            if self.records_memory:
                self._emit("_mem(('load', %s))" % addr)
            t = inst.type
            self._emit("c = _cells.get(%s)" % addr)
            self._define(inst, "%s if c is not None and %s > 0 and c[0] == %d "
                               "else _read(%s, %s)" % (
                                   self._wrap(t, "c[1]"), addr, t.size_bytes,
                                   addr, self.bind(t, "T")))
        elif isinstance(inst, Store):
            addr = self._local(self.ref(inst.address))
            value = self.ref(inst.value)
            if self.records_memory:
                self._emit("_mem(('store', %s))" % addr)
            t = inst.value.type
            size = t.size_bytes
            self._emit("c = _cells.get(%s)" % addr)
            self._emit("if %s > 0 and (c is None or c[0] == %d):" % (addr, size))
            self._emit("    _cells[%s] = (%d, %s)" % (
                addr, size, self._wrap(t, value)))
            self._emit("else:")
            self._emit("    _write(%s, %s, %s)" % (addr, self.bind(t, "T"), value))
        elif isinstance(inst, Gep):
            base = self.ref(inst.base)
            index = self.ref(inst.index)
            self._define(inst, "%s + %s * %d" % (base, index, inst.elem_size))
        elif isinstance(inst, Select):
            cond = self.ref(inst.operands[0])
            # only the chosen arm is read
            self._define(inst, "%s if %s else %s" % (
                self.ref(inst.operands[1], hoist=False), cond,
                self.ref(inst.operands[2], hoist=False)))
        elif isinstance(inst, UnaryOp):
            a = inst.operands[0]
            self._define(inst, _unop_source(
                inst.opcode, a.type, inst.type, self.ref(a)))
        elif isinstance(inst, Alloca):
            self._define(inst, "_alloc(%d)" % inst.size_bytes)
        elif isinstance(inst, Call):
            args = ", ".join(self.ref(a) for a in inst.operands)
            call = "it._run_function(%s, [%s])" % (self.bind(inst.callee, "F"), args)
            if inst.type.is_void:
                self._emit(call)
            else:
                self._define(inst, call)
        else:  # pragma: no cover - inventory is closed
            self._emit("raise _IE(%r)" % ("cannot execute opcode %r" % inst.opcode))

    def _terminator(self, block: BasicBlock, inst) -> None:
        if isinstance(inst, CondBranch):
            self._emit("if %s:" % self.ref(inst.cond))
            self._edge(block, inst.true_target, "        ")
            self._edge(block, inst.false_target, "    ")
        elif isinstance(inst, Branch):
            self._edge(block, inst.target, "    ")
        else:
            value = self.ref(inst.value) if inst.value is not None else "None"
            self._emit("it._ret = %s" % value)
            self._emit("return None")

    def _edge(self, src: Optional[BasicBlock], dst: BasicBlock, indent: str):
        """Leave for ``dst``: run the edge's φ copies, then return it."""
        phis = dst.phis
        if phis:
            missing = _missing_phi_message(dst, src)
            if missing is not None:
                self.lines.append(indent + "raise _IE(%r)" % missing)
                return
            # staged: every incoming is read before any φ is written
            self.lines.append(indent + "%s = %s" % (
                ", ".join("env[%d]" % self.slot(phi) for phi in phis),
                ", ".join(self.ref(phi.incoming_for(src), hoist=False)
                          for phi in phis)))
        self.lines.append(indent + "return %s" % self.bind(dst, "B"))


def _defines(inst: Instruction) -> bool:
    """Whether executing ``inst`` gives it a value."""
    if isinstance(inst, (Store,) + _TERMINATORS):
        return False
    return not (isinstance(inst, Call) and inst.type.is_void)


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
        #: per-function generated code: (entry edge, block -> (block
        #: function, instruction count), env slot -> value)
        self._code: Dict[Function, tuple] = {}
        #: return-value cell written by a block function's ``ret``; read
        #: immediately after it returns, before any other block executes,
        #: so recursive calls cannot clobber a pending value
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
        the block loop: when :mod:`repro.obs` is enabled the aggregate
        instruction count of the whole run is published as one counter
        increment, so the hot loop carries zero instrumentation cost.
        """
        if isinstance(fn, str):
            fn = self.module.get_function(fn)
        # chaos site at the run boundary (never inside the block loop):
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
        env = {slot: formal.type.wrap(actual)
               for slot, (formal, actual) in enumerate(zip(fn.args, args))}

        code = self._code.get(fn)
        if code is None:
            code = self._code[fn] = self._compile(fn)

        trace = self.traces.get(fn)
        if trace is None:
            return self._execute(code, env, _ignore)
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
            return self._execute(code, env, trace.blocks.append)
        finally:
            self._active.discard(fn)

    def _execute(self, code, env, record):
        """Run generated blocks from the entry until a return, passing each
        block to ``record`` before it runs."""
        enter, blocks, slots = code
        fuel = self.fuel
        try:
            block = enter(env, self)
            while block is not None:
                record(block)
                run, n_insts = blocks[block]
                # fuel is charged per block (body + terminator); the run
                # aborts before executing the block that would exceed the
                # budget, so completed runs count exactly their instructions
                self.executed_instructions += n_insts
                if self.executed_instructions > fuel:
                    raise FuelExhausted(
                        "exceeded %d dynamic instructions" % fuel
                    )
                block = run(env, self)
        except KeyError as exc:
            # an env slot read before anything wrote it
            slot = exc.args[0] if exc.args else None
            if type(slot) is not int or not 0 <= slot < len(slots):
                raise
            value = slots[slot]
            raise InterpreterError(
                "use of %s before definition" % getattr(value, "name", value)
            ) from None
        return self._ret

    def _compile(self, fn: Function) -> tuple:
        """Generate and compile ``fn``'s block functions."""
        with _obs_span("interp.compile", function=fn.name):
            writer = _FunctionSource(fn, self)
            source = writer.render()
            ns = writer.ns
            exec(compile(source, "<generated %s>" % fn.name, "exec"), ns)
            # taking the functions out of their own namespace leaves no
            # cycle, so a finished interpreter's memory is freed on release
            enter = ns.pop("_enter")
            blocks = {
                block: (ns.pop("_b%d" % i), len(writer.body[block]))
                for i, block in enumerate(fn.blocks)
            }
        # slots are numbered in insertion order
        return enter, blocks, tuple(writer.slots)
