"""Static analyses over the mini IR: CFG, dominators, loops, and the
control-flow characterisation used by Table I."""

from .cfg import CFG
from .dominators import DominatorTree, PostDominatorTree, VIRTUAL_EXIT
from .loops import Loop, LoopInfo, back_edges
from .dependence import (
    BranchMemStats,
    backward_slice,
    branch_memory_stats,
    control_dependence,
)
from .predication import (
    HyperblockSizeStats,
    PredicationStats,
    hyperblock_size_stats,
    predication_stats,
)

__all__ = [
    "CFG",
    "BranchMemStats",
    "DominatorTree",
    "HyperblockSizeStats",
    "Loop",
    "LoopInfo",
    "PostDominatorTree",
    "PredicationStats",
    "VIRTUAL_EXIT",
    "back_edges",
    "backward_slice",
    "branch_memory_stats",
    "control_dependence",
    "hyperblock_size_stats",
    "predication_stats",
]
