"""Offload-region abstraction shared by paths, Braids, Superblocks and
Hyperblocks.

A region is a set of basic blocks of one function with a designated entry
block, plus bookkeeping about which profiled paths it came from and how much
dynamic execution it covers.  BL-path regions and Braids are single-entry /
single-exit by construction; Superblocks are single-entry / multi-exit;
Hyperblocks may have several exits too — the :attr:`kind` tag records which
construction produced the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..analysis.cfg import CFG
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..profiling.ranking import branch_blocks, count_ops


@dataclass
class Region:
    """An accelerator offload candidate region."""

    kind: str  # "bl-path" | "braid" | "superblock" | "hyperblock" | "expanded"
    function: Function
    blocks: List[BasicBlock]  # topologically ordered within the region
    entry: BasicBlock
    exit: Optional[BasicBlock]
    coverage: float = 0.0  # fraction of the function's dynamic instructions
    source_paths: List[int] = field(default_factory=list)  # BL path ids
    frequency: int = 0  # combined execution count of the source paths

    def __post_init__(self):
        self._block_set: Set[BasicBlock] = set(self.blocks)

    # -- membership -----------------------------------------------------------

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self._block_set

    @property
    def block_set(self) -> Set[BasicBlock]:
        return self._block_set

    # -- size metrics ----------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Instructions in the region, φs excluded (Table II:C3 / IV:C4)."""
        return count_ops(self.blocks)

    # -- control structure -------------------------------------------------------

    def guard_branches(self) -> List[BasicBlock]:
        """Branches with at least one successor *leaving* the region.

        These become guards when the region is framed (Table IV:C5).  The
        exit block's branch is excluded: by the time it executes, the frame
        has completed, so it merely tells the host where to resume.
        """
        out = []
        for b in branch_blocks(self.blocks):
            if b is self.exit:
                continue
            if any(s not in self._block_set for s in b.successors):
                out.append(b)
        return out

    def internal_branches(self) -> List[BasicBlock]:
        """Branches whose successors all stay inside the region — the IFs a
        Braid introduces when merging paths (Table IV:C6)."""
        return [
            b
            for b in branch_blocks(self.blocks)
            if all(s in self._block_set for s in b.successors)
        ]

    def exit_edges(self) -> List[Tuple[BasicBlock, BasicBlock]]:
        """Edges from region blocks to blocks outside the region."""
        out = []
        for b in self.blocks:
            for s in b.successors:
                if s not in self._block_set:
                    out.append((b, s))
        return out

    @property
    def coverage_per_op(self) -> float:
        """Coverage divided by region size (Table IV analysis §IV-B)."""
        ops = self.op_count
        return self.coverage / ops if ops else 0.0

    def __repr__(self) -> str:
        return "<Region %s %s: %d blocks, %d ops, cov=%.1f%%>" % (
            self.kind,
            self.function.name,
            len(self.blocks),
            self.op_count,
            self.coverage * 100,
        )


def order_blocks_topologically(
    fn: Function, blocks: Sequence[BasicBlock]
) -> List[BasicBlock]:
    """Order a block subset by the function's reverse post-order."""
    cfg = CFG(fn)
    index = {b: i for i, b in enumerate(cfg.rpo)}
    return sorted(blocks, key=lambda b: index.get(b, len(index)))
