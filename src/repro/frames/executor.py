"""Executable semantics of software frames: atomic run-or-rollback.

:class:`FrameExecutor` runs a frame against live-in values and a
:class:`~repro.interp.memory.Memory`.  Stores populate an undo log; if
control tries to leave the region anywhere other than the exit block, the
frame aborts and the undo log restores memory exactly — the property the
paper's software speculation depends on, and the one our property tests
verify byte-for-byte.

Atomicity holds on *every* exit, not just the scripted abort path: any
exception escaping mid-frame (an unexecutable construct, a semantic
error, an injected fault) replays the undo log before propagating, and a
per-invocation step budget (:class:`FrameBudgetExhausted`, the analogue
of the interpreter's fuel) bounds a malformed region's control flow so a
runaway frame cannot wedge its worker.  The named fault sites consulted
here (``frame.exception``, ``frame.store_corrupt``, ``frame.guard_flip``)
are what the chaos suite uses to prove all of this under duress; they
cost one flag test each when no plan is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..interp.interpreter import binop_fn, compare_fn, unop_fn
from ..interp.memory import Memory
from ..obs import counter as _obs_counter, enabled as _obs_enabled
from ..ir.block import BasicBlock
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
from ..ir.values import Constant, GlobalArray, UndefValue, Value
from ..resilience.faults import (
    SITE_FRAME_EXCEPTION,
    SITE_FRAME_GUARD_FLIP,
    SITE_FRAME_STORE_CORRUPT,
    FaultInjected,
    consult as _flt_consult,
    corrupt_value as _flt_corrupt,
    enabled as _flt_enabled,
)
from .frame import Frame

#: step-budget floor / per-block multiplier used when no explicit budget
#: is given: generous enough for any legal region walk (paths visit each
#: block once; braids re-converge), tight enough to stop a runaway loop
MIN_STEP_BUDGET = 4096
STEP_BUDGET_FACTOR = 64


class FrameExecutionError(Exception):
    """Frame execution hit an unexecutable construct."""


class FrameBudgetExhausted(FrameExecutionError):
    """The invocation exceeded its block-step budget (fuel analogue)."""


@dataclass
class UndoLog:
    """Old-value log used to revert speculative stores."""

    entries: List[Tuple[int, Optional[Tuple[int, object]]]] = field(
        default_factory=list
    )

    def record(self, memory: Memory, addr: int) -> None:
        self.entries.append((addr, memory.read_raw(addr)))

    def rollback(self, memory: Memory) -> None:
        """Restore logged locations, newest first."""
        for addr, old in reversed(self.entries):
            if old is None:
                memory.erase(addr)
            else:
                memory.write_raw(addr, old[0], old[1])
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class FrameResult:
    """Outcome of one frame invocation."""

    success: bool
    live_outs: Dict[Value, object] = field(default_factory=dict)
    exit_successor: Optional[BasicBlock] = None  # host resume point
    failed_guard_block: Optional[BasicBlock] = None
    ops_executed: int = 0
    stores_logged: int = 0
    blocks_executed: int = 0


class FrameExecutor:
    """Runs frames atomically over a shared memory."""

    def __init__(
        self,
        memory: Memory,
        global_base: Dict[GlobalArray, int],
        step_budget: Optional[int] = None,
    ):
        self.memory = memory
        self.global_base = global_base
        #: per-invocation block-step limit; ``None`` derives one from the
        #: region size at run time
        self.step_budget = step_budget

    def run(self, frame: Frame, live_in_values: Dict[Value, object]) -> FrameResult:
        """Execute ``frame``; on guard failure memory is rolled back.

        ``live_in_values`` must supply every value in ``frame.live_ins``.
        Exceptions escaping mid-frame also roll memory back before
        propagating — an invocation never half-commits.
        """
        try:
            result = self._run(frame, live_in_values)
        except BaseException:
            if _obs_enabled():
                kind = frame.region.kind
                _obs_counter(
                    "frames.aborts", 1,
                    help="frame invocations that committed (or rolled back)",
                    region=kind)
                _obs_counter(
                    "frames.exception_aborts", 1,
                    help="aborts forced by an exception escaping the frame",
                    region=kind)
            raise
        if _obs_enabled():
            kind = frame.region.kind
            _obs_counter(
                "frames.commits" if result.success else "frames.aborts", 1,
                help="frame invocations that committed (or rolled back)",
                region=kind)
            if not result.success:
                _obs_counter("frames.rolled_back_stores",
                             result.stores_logged,
                             help="undo-log entries replayed by aborts",
                             region=kind)
        return result

    def _run(self, frame: Frame, live_in_values: Dict[Value, object]) -> FrameResult:
        missing = [v for v in frame.live_ins if v not in live_in_values]
        if missing:
            raise FrameExecutionError(
                "missing live-in values: %s"
                % ", ".join(getattr(v, "name", "?") for v in missing)
            )
        env: Dict[Value, object] = dict(live_in_values)
        undo = UndoLog()
        try:
            return self._run_body(frame, env, undo)
        except BaseException:
            # the undo log is the atomicity guarantee: whatever already
            # ran its speculative stores is reverted before the caller
            # sees the exception (rollback clears the log, so the scripted
            # abort paths inside _run_body are not replayed twice)
            undo.rollback(self.memory)
            raise

    def _run_body(
        self, frame: Frame, env: Dict[Value, object], undo: "UndoLog"
    ) -> FrameResult:
        region = frame.region
        order = region.blocks
        is_path = region.kind in ("bl-path", "superblock", "expanded")
        block_set = region.block_set

        result = FrameResult(success=False)
        block = region.entry
        prev: Optional[BasicBlock] = None
        path_index = 0
        budget = self.step_budget
        if budget is None:
            budget = max(MIN_STEP_BUDGET, STEP_BUDGET_FACTOR * len(order))

        while True:
            result.blocks_executed += 1
            # fuel analogue: a malformed region whose control flow never
            # reaches the exit must abort (and roll back), not hang the
            # worker that invoked it
            if result.blocks_executed > budget:
                raise FrameBudgetExhausted(
                    "frame exceeded %d block steps (region %s)"
                    % (budget, region.kind)
                )
            if _flt_enabled():
                spec = _flt_consult(SITE_FRAME_EXCEPTION, block.name)
                if spec is not None:
                    raise FaultInjected(
                        "injected mid-frame exception at block %s" % block.name
                    )
            # φs: entry φs come from live-ins; interior φs resolve from the
            # incoming edge actually taken (ψ semantics for braids).
            staged = []
            for phi in block.phis:
                if phi in env and block is region.entry:
                    continue  # live-in supplied value
                if prev is None:
                    raise FrameExecutionError(
                        "entry φ %%%s not supplied as live-in" % phi.name
                    )
                val = phi.incoming_for(prev)
                if val is None:
                    raise FrameExecutionError(
                        "φ %%%s has no incoming for %s" % (phi.name, prev.name)
                    )
                staged.append((phi, self._eval(val, env)))
            for phi, v in staged:
                env[phi] = v

            next_block: Optional[BasicBlock] = None
            leave = False
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                if isinstance(inst, (Branch, CondBranch, Ret)):
                    succ = self._next_successor(inst, env, block)
                    if block is (order[-1] if order else None):
                        # frame completes; host resumes at succ (or return)
                        result.exit_successor = succ
                        leave = True
                        break
                    if succ is None:
                        # a return mid-region: treat as leaving the region
                        result.failed_guard_block = block
                        undo.rollback(self.memory)
                        return result
                    if is_path:
                        expected = order[path_index + 1]
                        if succ is not expected:
                            result.failed_guard_block = block
                            undo.rollback(self.memory)
                            return result
                        next_block = succ
                    else:
                        if succ not in block_set:
                            result.failed_guard_block = block
                            undo.rollback(self.memory)
                            return result
                        next_block = succ
                    break
                result.ops_executed += 1
                self._execute(inst, env, undo, result)

            if leave:
                break
            if next_block is None:
                raise FrameExecutionError(
                    "block %s has no terminator" % block.name
                )
            prev, block = block, next_block
            if is_path:
                path_index += 1

        # success: gather live-outs
        result.success = True
        result.stores_logged = len(undo)
        for v in frame.live_outs:
            if v in env:
                result.live_outs[v] = env[v]
        return result

    # -- instruction semantics (shared tables with the interpreter) -------------

    def _execute(self, inst: Instruction, env, undo: UndoLog, result: FrameResult) -> None:
        if isinstance(inst, BinaryOp):
            a = self._eval(inst.operands[0], env)
            b = self._eval(inst.operands[1], env)
            env[inst] = inst.type.wrap(binop_fn(inst.opcode, inst.type)(a, b))
        elif isinstance(inst, Compare):
            a = self._eval(inst.operands[0], env)
            b = self._eval(inst.operands[1], env)
            env[inst] = 1 if compare_fn(inst.opcode, inst.predicate)(a, b) else 0
        elif isinstance(inst, Load):
            addr = self._eval(inst.address, env)
            env[inst] = self.memory.read(addr, inst.type)
        elif isinstance(inst, Store):
            addr = self._eval(inst.address, env)
            undo.record(self.memory, addr)
            result.stores_logged += 1
            value = self._eval(inst.value, env)
            if _flt_enabled():
                spec = _flt_consult(SITE_FRAME_STORE_CORRUPT, inst.name)
                if spec is not None:
                    value = _flt_corrupt(value, spec)
            self.memory.write(addr, inst.value.type, value)
        elif isinstance(inst, Gep):
            env[inst] = self._eval(inst.base, env) + self._eval(
                inst.index, env
            ) * inst.elem_size
        elif isinstance(inst, Select):
            c = self._eval(inst.operands[0], env)
            env[inst] = self._eval(inst.operands[1 if c else 2], env)
        elif isinstance(inst, UnaryOp):
            a = inst.operands[0]
            env[inst] = unop_fn(inst.opcode, a.type, inst.type)(
                self._eval(a, env))
        elif isinstance(inst, Alloca):
            env[inst] = self.memory.alloc(inst.size_bytes)
        elif isinstance(inst, Call):
            raise FrameExecutionError(
                "call inside a frame: inline before region formation"
            )
        else:  # pragma: no cover
            raise FrameExecutionError("cannot execute %r in frame" % inst.opcode)

    def _next_successor(
        self, inst, env, block: Optional[BasicBlock] = None
    ) -> Optional[BasicBlock]:
        if isinstance(inst, Branch):
            return inst.target
        if isinstance(inst, CondBranch):
            taken = bool(self._eval(inst.cond, env))
            if _flt_enabled():
                spec = _flt_consult(
                    SITE_FRAME_GUARD_FLIP,
                    block.name if block is not None else None,
                )
                if spec is not None:
                    taken = not taken
            return inst.true_target if taken else inst.false_target
        return None  # Ret

    def _eval(self, value: Value, env):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalArray):
            return self.global_base[value]
        if isinstance(value, UndefValue):
            return 0
        try:
            return env[value]
        except KeyError:
            raise FrameExecutionError(
                "value %%%s not available in frame" % getattr(value, "name", "?")
            ) from None
