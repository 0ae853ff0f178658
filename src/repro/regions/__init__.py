"""Offload region formation: BL-path regions, Superblock/Hyperblock
baselines, Braids, and back-edge target expansion."""

from .region import Region, order_blocks_topologically
from .path_region import path_to_region
from .superblock import (
    SuperblockDiagnosis,
    build_superblock,
    diagnose_superblock,
    superblock_is_feasible,
)
from .hyperblock import (
    HyperblockColdStats,
    build_hyperblock,
    build_loop_hyperblock,
    hottest_innermost_loop,
    hyperblock_cold_stats,
)
from .braid import (
    Braid,
    BraidTableRow,
    braid_memory_branch_dependences,
    braid_table_row,
    build_braids,
)
from .expansion import (
    ExpandedPath,
    ExpansionSummary,
    expand_path,
    summarise_expansion,
)

__all__ = [
    "Braid",
    "BraidTableRow",
    "ExpandedPath",
    "ExpansionSummary",
    "HyperblockColdStats",
    "Region",
    "SuperblockDiagnosis",
    "braid_memory_branch_dependences",
    "braid_table_row",
    "build_braids",
    "build_hyperblock",
    "build_loop_hyperblock",
    "build_superblock",
    "diagnose_superblock",
    "expand_path",
    "hottest_innermost_loop",
    "hyperblock_cold_stats",
    "order_blocks_topologically",
    "path_to_region",
    "summarise_expansion",
    "superblock_is_feasible",
]
