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
    count_ops,
    latency_weight,
    path_overlap_count,
    rank_paths,
    top_k_coverage,
)
from .path_trace import PathTraceAnalysis, SuccessorStats
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
    "PathTraceAnalysis",
    "RankedPath",
    "SamplingComparison",
    "SuccessorStats",
    "compare_frequency_vs_sampling",
    "count_ops",
    "latency_weight",
    "path_overlap_count",
    "rank_paths",
    "sample_path_profile",
    "top_k_coverage",
]
