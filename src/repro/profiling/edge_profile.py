"""Edge profiles and branch-bias statistics.

Edge profiles are what Superblock/Hyperblock construction (the paper's
baselines) consume, and what Fig. 4's branch-bias distribution is computed
from.  They are deliberately *local*: each edge/branch is counted
independently, which is exactly the blind spot the paper's Fig. 3 exploits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import CondBranch


@dataclass
class EdgeProfile:
    """Edge execution counts plus per-branch taken/not-taken counts."""

    function: Function
    edge_counts: Counter = field(default_factory=Counter)
    block_counts: Counter = field(default_factory=Counter)
    branch_taken: Counter = field(default_factory=Counter)
    branch_not_taken: Counter = field(default_factory=Counter)

    @classmethod
    def from_trace(cls, trace) -> "EdgeProfile":
        """Derive the edge profile of a recorded trace.

        Every counter keeps first-occurrence order.  Taken/not-taken
        counts fold out of the edge counts through each branch's
        ``true_target``; a branch whose two targets are the same block
        counts as taken, since both outcomes reach that block.
        """
        blocks = trace.blocks
        profile = cls(trace.function, block_counts=trace.block_counts())
        edges = profile.edge_counts
        edges.update(zip(blocks, islice(blocks, 1, None)))
        # pairs that straddle an invocation boundary are not edges
        for edge in [e for e in edges if e[0] is None or e[1] is None]:
            del edges[edge]
        for (src, dst), n in edges.items():
            term = src.terminator
            if isinstance(term, CondBranch):
                if dst is term.true_target:
                    profile.branch_taken[src] += n
                else:
                    profile.branch_not_taken[src] += n
        return profile

    def edge_count(self, src: BasicBlock, dst: BasicBlock) -> int:
        return self.edge_counts[(src, dst)]

    def branch_bias(self, block: BasicBlock) -> Optional[float]:
        """Bias of the branch ending ``block``: max(taken, not-taken) share.

        Returns None for blocks without an executed conditional branch.
        """
        t = self.branch_taken[block]
        n = self.branch_not_taken[block]
        if t + n == 0:
            return None
        return max(t, n) / (t + n)

    def branch_biases(self) -> List[Tuple[BasicBlock, float]]:
        """(block, bias) for every executed conditional branch."""
        out = []
        for block in self.function.blocks:
            if isinstance(block.terminator, CondBranch):
                bias = self.branch_bias(block)
                if bias is not None:
                    out.append((block, bias))
        return out

    def bias_distribution(self, thresholds=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0)) -> Dict[str, float]:
        """Fraction of branches whose bias falls in each bucket (Fig. 4)."""
        biases = [b for _, b in self.branch_biases()]
        if not biases:
            return {}
        buckets: Dict[str, float] = {}
        lo = 0.0
        for hi in thresholds:
            label = "%.0f-%.0f%%" % (lo * 100, hi * 100)
            buckets[label] = sum(1 for b in biases if lo < b <= hi) / len(biases)
            lo = hi
        return buckets

    def fraction_unbiased(self, cutoff: float = 0.8) -> float:
        """Fraction of branches with bias below ``cutoff`` (Fig. 4 headline)."""
        biases = [b for _, b in self.branch_biases()]
        if not biases:
            return 0.0
        return sum(1 for b in biases if b < cutoff) / len(biases)

    def hottest_successor(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Most frequent successor edge out of ``block``."""
        best, best_count = None, 0
        for succ in block.successors:
            c = self.edge_counts[(block, succ)]
            if c > best_count:
                best, best_count = succ, c
        return best
