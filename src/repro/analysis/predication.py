"""If-conversion predication cost analysis (paper Table I, §II).

The paper reports the number of predication bits required to fully
if-convert the (aggressively inlined) hottest function: one predicate per
forward conditional branch.  It also measures how much larger Hyperblocks
get relative to basic blocks when inner loops are if-converted assuming a
2-bit predication budget per block (following DySER's encoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ir.function import Function
from ..ir.instructions import CondBranch
from .cfg import CFG
from .dominators import DominatorTree
from .loops import LoopInfo, back_edges


@dataclass
class PredicationStats:
    """Table I predication row for one function."""

    function: str
    forward_branches: int  # == predication bits to if-convert fully
    total_cond_branches: int


def predication_stats(fn: Function) -> PredicationStats:
    """Count predication bits needed to if-convert ``fn``.

    Every forward conditional branch needs one predicate bit; loop-back
    branches cannot be predicated away.  Table I's backward-branch count
    is :attr:`LoopInfo.backward_branch_count`.
    """
    cfg = CFG(fn)
    dom = DominatorTree.compute(cfg)
    backs = {(u, v) for u, v in back_edges(cfg, dom)}

    forward = 0
    total = 0
    for block in cfg.blocks:
        term = block.terminator
        if not isinstance(term, CondBranch):
            continue
        total += 1
        if not any((block, succ) in backs for succ in cfg.succs(block)):
            forward += 1
    return PredicationStats(
        function=fn.name,
        forward_branches=forward,
        total_cond_branches=total,
    )


@dataclass
class HyperblockSizeStats:
    """§II hyperblock-vs-basic-block granularity measurement."""

    function: str
    avg_basic_block_ops: float
    avg_hyperblock_ops: float

    @property
    def expansion_ratio(self) -> float:
        if self.avg_basic_block_ops == 0:
            return 0.0
        return self.avg_hyperblock_ops / self.avg_basic_block_ops


def hyperblock_size_stats(fn: Function) -> HyperblockSizeStats:
    """Compare inner-loop hyperblock size against mean basic block size.

    Each innermost loop body, fully if-converted, forms one hyperblock
    (φs and terminators excluded from op counts, matching how the paper
    counts "operations").
    """
    cfg = CFG(fn)
    loops = LoopInfo.compute(cfg)

    def op_count(block) -> int:
        return sum(
            1
            for inst in block.instructions
            if not inst.is_terminator and inst.opcode != "phi"
        )

    block_sizes = [op_count(b) for b in fn.blocks]
    avg_bb = sum(block_sizes) / len(block_sizes) if block_sizes else 0.0

    hb_sizes: List[int] = []
    for loop in loops.innermost_loops():
        hb_sizes.append(sum(op_count(b) for b in loop.blocks))
    if not hb_sizes:
        # no loops: the whole acyclic body forms one hyperblock
        hb_sizes = [sum(block_sizes)]
    avg_hb = sum(hb_sizes) / len(hb_sizes)
    return HyperblockSizeStats(
        function=fn.name, avg_basic_block_ops=avg_bb, avg_hyperblock_ops=avg_hb
    )
