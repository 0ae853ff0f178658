"""Dynamic profiling: Ball–Larus path profiles, edge profiles, path traces,
path ranking, and the sampling-profiler comparison."""

from .ball_larus import (
    BallLarusNumbering,
    ENTRY,
    EXIT,
    PathNumberingError,
)
from .path_profile import PathProfile
from .edge_profile import EdgeProfile
from .ranking import (
    RankedPath,
    branch_blocks,
    count_memory_ops,
    count_ops,
    latency_weight,
    path_overlap_count,
    rank_paths,
    top_k_coverage,
)
from .path_trace import SuccessorStats, successor_stats
from .sampling import (
    SamplingComparison,
    compare_frequency_vs_sampling,
    sample_path_profile,
)

__all__ = [
    "BallLarusNumbering",
    "ENTRY",
    "EXIT",
    "EdgeProfile",
    "PathNumberingError",
    "PathProfile",
    "RankedPath",
    "SamplingComparison",
    "SuccessorStats",
    "branch_blocks",
    "compare_frequency_vs_sampling",
    "count_memory_ops",
    "count_ops",
    "latency_weight",
    "path_overlap_count",
    "rank_paths",
    "sample_path_profile",
    "successor_stats",
    "top_k_coverage",
]
