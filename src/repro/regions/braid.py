"""Braids: merging BL-paths with common entry/exit blocks (paper §IV-B).

A Braid merges all profiled paths that *start and end at the same basic
block*.  The union of their blocks forms a single-entry single-exit acyclic
region containing multiple flows of control: branches whose sides all stay
inside the Braid become ordinary IFs (executed under non-speculative
predication on the accelerator), while branches that can leave the region
remain guards.  Coverage is the sum of the merged paths' coverages.  Every
merged path shares the entry and exit block, so the braid's frame takes the
live-ins its paths take; its live-outs can only shrink, as a merged arm no
longer reads a value from outside the region.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..profiling.ranking import RankedPath
from .region import Region, order_blocks_topologically


@dataclass
class Braid:
    """A braid region plus merge bookkeeping."""

    region: Region
    paths: List[RankedPath]

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def coverage(self) -> float:
        return self.region.coverage

    @property
    def weight(self) -> int:
        return sum(p.weight for p in self.paths)

    @property
    def key(self) -> Tuple[BasicBlock, BasicBlock]:
        return (self.region.entry, self.region.exit)

    def __repr__(self) -> str:
        return "<Braid %s->%s: %d paths, %d ops, cov=%.1f%%>" % (
            self.region.entry.name,
            self.region.exit.name if self.region.exit else "?",
            self.n_paths,
            self.region.op_count,
            self.coverage * 100,
        )


def build_braids(
    fn: Function,
    ranked_paths: Sequence[RankedPath],
    max_paths_per_braid: Optional[int] = None,
    min_weight_ratio: float = 0.0,
) -> List[Braid]:
    """Group paths by (entry block, exit block) and merge each group.

    Paths are considered in rank order; ``max_paths_per_braid`` caps how many
    paths a single braid may absorb (the §IV-B merge-depth ablation knob).
    ``min_weight_ratio`` merges only *hot* paths: a path joins a braid only
    if its weight is at least that fraction of the group's hottest path —
    the paper merges hot BL-paths, keeping cold siblings off the fabric.
    Returns braids sorted by descending weight.
    """
    groups: Dict[Tuple[BasicBlock, BasicBlock], List[RankedPath]] = defaultdict(list)
    for path in ranked_paths:
        key = (path.entry_block, path.exit_block)
        bucket = groups[key]
        if max_paths_per_braid is not None and len(bucket) >= max_paths_per_braid:
            continue
        if (
            min_weight_ratio > 0.0
            and bucket
            and path.weight < min_weight_ratio * bucket[0].weight
        ):
            continue
        bucket.append(path)

    braids: List[Braid] = []
    for (entry, exit_), paths in groups.items():
        block_union = {b for p in paths for b in p.blocks}
        ordered = order_blocks_topologically(fn, block_union)
        region = Region(
            kind="braid",
            function=fn,
            blocks=ordered,
            entry=entry,
            exit=exit_,
            coverage=sum(p.coverage for p in paths),
            source_paths=[p.path_id for p in paths],
            frequency=sum(p.freq for p in paths),
        )
        braids.append(Braid(region=region, paths=list(paths)))

    braids.sort(key=lambda b: -b.weight)
    return braids


@dataclass
class BraidTableRow:
    """One Table IV row."""

    function: str
    n_braids: int  # C1
    avg_paths_per_braid: float  # C2
    top_coverage: float  # C3 (top braid)
    top_ops: int  # C4
    top_guards: int  # C5
    top_ifs: int  # C6
    live_ins: int  # C7
    live_outs: int  # C7


def braid_table_row(fn: Function, braids: Sequence[Braid]) -> BraidTableRow:
    """Summarise a function's braids the way Table IV reports them."""
    if not braids:
        return BraidTableRow(fn.name, 0, 0.0, 0.0, 0, 0, 0, 0, 0)
    # frames are built from regions, so the import waits for the call
    from ..frames.frame import build_frame

    top = braids[0]
    # C7 counts what each invocation of the top braid's frame transfers
    frame = build_frame(top.region)
    return BraidTableRow(
        function=fn.name,
        n_braids=len(braids),
        avg_paths_per_braid=sum(b.n_paths for b in braids) / len(braids),
        top_coverage=top.coverage,
        top_ops=top.region.op_count,
        top_guards=len(top.region.guard_branches()),
        top_ifs=len(top.region.internal_branches()),
        live_ins=len(frame.live_ins),
        live_outs=len(frame.live_outs),
    )


def braid_memory_branch_dependences(braid: Braid) -> int:
    """Memory ops still control-dependent on a branch inside the braid.

    §IV-B: merging paths turns guards into internal IFs; memory ops beyond
    an internal IF stay control-dependent, but ops previously below a guard
    become speculatively hoistable.  We count memory ops in blocks reachable
    only through an internal IF branch.
    """
    internal = set(braid.region.internal_branches())
    if not internal:
        return 0
    dependent = 0
    region_set = braid.region.block_set
    for branch_block in internal:
        seen = set()
        work = [s for s in branch_block.successors if s in region_set]
        while work:
            blk = work.pop()
            if blk in seen or blk is braid.region.exit:
                continue
            seen.add(blk)
            dependent += sum(1 for i in blk.instructions if i.is_memory)
            work.extend(s for s in blk.successors if s in region_set)
    return dependent
