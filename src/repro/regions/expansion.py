"""BL-path target expansion across loop back edges (paper §IV-A, Table III).

BL-paths are acyclic; to pipeline across loop iterations the offload unit is
enlarged by chaining the path with the path that most often follows it in
the recorded path trace.  When a path repeats itself with ≥90 % probability
the unit effectively unrolls 2×; when a *different* path reliably follows,
the two are concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..ir.block import BasicBlock
from ..profiling.path_profile import PathProfile
from ..profiling.path_trace import successor_stats
from ..profiling.ranking import RankedPath, count_ops


@dataclass
class ExpandedPath:
    """A path chained with its most likely successor path."""

    base: RankedPath
    successor_id: Optional[int]
    successor_blocks: List[BasicBlock]
    bias: float
    repeats_same_path: bool

    @property
    def blocks(self) -> List[BasicBlock]:
        """Block *trace* of the expanded unit (blocks may repeat)."""
        return list(self.base.blocks) + list(self.successor_blocks)

    @property
    def base_ops(self) -> int:
        return self.base.ops

    @property
    def expanded_ops(self) -> int:
        return self.base.ops + count_ops(self.successor_blocks)

    @property
    def growth_factor(self) -> float:
        return self.expanded_ops / self.base_ops if self.base_ops else 1.0

    @property
    def bias_bucket(self) -> str:
        if self.bias >= 0.9:
            return "90-100%"
        if self.bias >= 0.7:
            return "70-90%"
        return "<70%"


def expand_path(
    profile: PathProfile,
    ranked: RankedPath,
    min_bias: float = 0.0,
) -> ExpandedPath:
    """Chain ``ranked`` with its most likely successor from the path trace.

    When the successor bias is below ``min_bias`` the path is returned
    unexpanded (empty successor block list) but the observed bias is still
    reported, so Table III can bucket every workload.
    """
    stats = successor_stats(profile.trace, ranked.path_id)
    expand = stats.best_successor is not None and stats.bias >= min_bias
    return ExpandedPath(
        base=ranked,
        successor_id=stats.best_successor,
        successor_blocks=profile.decode(stats.best_successor) if expand else [],
        bias=stats.bias,
        repeats_same_path=stats.repeats_itself,
    )


@dataclass
class ExpansionSummary:
    """Table III row material for one workload."""

    function: str
    bias: float
    bias_bucket: str
    repeats_same_path: bool
    growth_factor: float


def summarise_expansion(
    profile: PathProfile, ranked_paths: Sequence[RankedPath]
) -> Optional[ExpansionSummary]:
    """Expansion summary for the top-ranked path (None if no paths)."""
    if not ranked_paths:
        return None
    expanded = expand_path(profile, ranked_paths[0])
    return ExpansionSummary(
        function=profile.function.name,
        bias=expanded.bias,
        bias_bucket=expanded.bias_bucket,
        repeats_same_path=expanded.repeats_same_path,
        growth_factor=expanded.growth_factor,
    )
