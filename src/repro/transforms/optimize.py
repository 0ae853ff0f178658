"""Scalar and CFG clean-up passes: constant folding, dead code elimination,
unreachable-block removal and trivial φ simplification.

These run after inlining (constant-bound arguments create foldable trees)
and before profiling/region formation, mirroring the -O pipeline position
of the LLVM passes Needle assumes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from ..interp.interpreter import binop_fn, compare_fn, unop_fn
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryOp,
    Branch,
    Compare,
    CondBranch,
    Instruction,
    Phi,
    Select,
    UnaryOp,
)
from ..ir.values import Constant, Value


# --------------------------------------------------------------------------
# constant folding
# --------------------------------------------------------------------------


def _fold_one(inst: Instruction) -> Optional[Constant]:
    ops = inst.operands
    if isinstance(inst, BinaryOp) and all(isinstance(o, Constant) for o in ops):
        try:
            fn = binop_fn(inst.opcode, inst.type)
            return Constant(inst.type, fn(ops[0].value, ops[1].value))
        except Exception:
            return None  # division by zero etc. must stay dynamic
    if isinstance(inst, Compare) and all(isinstance(o, Constant) for o in ops):
        fn = compare_fn(inst.opcode, inst.predicate)
        return Constant(inst.type, 1 if fn(ops[0].value, ops[1].value) else 0)
    if isinstance(inst, Select) and isinstance(ops[0], Constant):
        chosen = ops[1] if ops[0].value else ops[2]
        if isinstance(chosen, Constant):
            return chosen
        return None
    if isinstance(inst, UnaryOp) and isinstance(ops[0], Constant):
        try:
            value = unop_fn(inst.opcode, ops[0].type, inst.type)(ops[0].value)
        except Exception:
            return None  # fptosi of a NaN etc. must stay dynamic
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return Constant(inst.type, value)
    return None


def constant_fold(fn: Function) -> int:
    """Fold constant expressions; returns the number of folded instructions."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for inst in list(block.instructions):
                c = _fold_one(inst)
                if c is None:
                    continue
                _replace_all_uses(fn, inst, c)
                block.remove(inst)
                folded += 1
                changed = True
    return folded


def _replace_all_uses(fn: Function, old: Value, new: Value) -> None:
    for block in fn.blocks:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                hit = False
                for i, (blk, val) in enumerate(inst.incoming):
                    if val is old:
                        inst.incoming[i] = (blk, new)
                        hit = True
                if hit:
                    inst.operands = [v for _, v in inst.incoming]
            else:
                inst.replace_operand(old, new)


# --------------------------------------------------------------------------
# dead code elimination
# --------------------------------------------------------------------------

_SIDE_EFFECT_OPCODES = {"store", "call", "alloca"}


def dead_code_eliminate(fn: Function) -> int:
    """Remove value-producing instructions with no uses; returns count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        used: Set[Value] = set()
        for block in fn.blocks:
            for inst in block.instructions:
                operands = (
                    [v for _, v in inst.incoming]
                    if isinstance(inst, Phi)
                    else inst.operands
                )
                used.update(operands)
        for block in fn.blocks:
            for inst in list(block.instructions):
                if inst.is_terminator or inst.opcode in _SIDE_EFFECT_OPCODES:
                    continue
                if inst.type.is_void:
                    continue
                if inst not in used:
                    block.remove(inst)
                    removed += 1
                    changed = True
    return removed


# --------------------------------------------------------------------------
# CFG simplification
# --------------------------------------------------------------------------


def simplify_cfg(fn: Function) -> int:
    """Fold constant branches, drop unreachable blocks, simplify φs.

    Returns the number of structural changes made.
    """
    changes = 0

    # constant condbr -> br
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, CondBranch) and isinstance(term.cond, Constant):
            target = term.true_target if term.cond.value else term.false_target
            dead_side = term.false_target if term.cond.value else term.true_target
            block.remove(term)
            block.append(Branch(target))
            if dead_side is not target:
                for phi in dead_side.phis:
                    phi.remove_incoming(block)
            changes += 1

    # unreachable block removal
    reachable: Set[BasicBlock] = set()
    stack = [fn.entry] if fn.blocks else []
    while stack:
        b = stack.pop()
        if b in reachable:
            continue
        reachable.add(b)
        stack.extend(b.successors)
    for block in list(fn.blocks):
        if block not in reachable:
            for succ in block.successors:
                if succ in reachable:
                    for phi in succ.phis:
                        phi.remove_incoming(block)
            fn.remove_block(block)
            changes += 1

    # single-incoming φ simplification
    for block in fn.blocks:
        for phi in list(block.phis):
            if len(phi.incoming) == 1:
                _replace_all_uses(fn, phi, phi.incoming[0][1])
                block.remove(phi)
                changes += 1
    return changes


def optimize(fn: Function, rounds: int = 4) -> Dict[str, int]:
    """Run fold → simplify → DCE to fixpoint; returns per-pass counts."""
    totals = {"folded": 0, "cfg": 0, "dce": 0}
    for _ in range(rounds):
        f = constant_fold(fn)
        c = simplify_cfg(fn)
        d = dead_code_eliminate(fn)
        totals["folded"] += f
        totals["cfg"] += c
        totals["dce"] += d
        if f == c == d == 0:
            break
    return totals
