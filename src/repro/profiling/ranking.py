"""Path ranking by the paper's path-weight metric (§III.A).

``Pwt(p) = freq(p) × ops(p)`` — every instruction carries the same weight
because front-end energy per instruction is roughly constant; maximising
Pwt maximises the fetch/decode energy elided by offload.  ``Fwt`` is the sum
of all Pwt in the function, so ``Pwt/Fwt`` is exactly the fraction of the
function's dynamic instructions covered by the path.

A latency-weighted variant is provided for performance-oriented ranking
(and for the §III.A sampling-vs-frequency comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..ir.block import BasicBlock
from .path_profile import PathProfile


def count_ops(blocks: Sequence[BasicBlock], include_phis: bool = False) -> int:
    """Operation count of a block sequence (φs excluded by default)."""
    total = 0
    for b in blocks:
        for inst in b.instructions:
            if inst.opcode == "phi" and not include_phis:
                continue
            total += 1
    return total


def latency_weight(blocks: Sequence[BasicBlock]) -> int:
    """Latency-weighted size of a block sequence."""
    total = 0
    for b in blocks:
        for inst in b.instructions:
            if inst.opcode == "phi":
                continue
            total += max(1, inst.latency)
    return total


@dataclass
class RankedPath:
    """One profiled path with its rank metrics."""

    path_id: int
    blocks: List[BasicBlock]
    freq: int
    ops: int
    weight: int  # Pwt = freq * ops
    coverage: float  # Pwt / Fwt

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def exit_block(self) -> BasicBlock:
        return self.blocks[-1]

    @property
    def branch_count(self) -> int:
        """Conditional branches traversed by the path (Table II:C4)."""
        return sum(
            1 for b in self.blocks if b.terminator is not None
            and b.terminator.opcode == "condbr"
        )

    @property
    def memory_op_count(self) -> int:
        """Memory operations along the path (Table II:C7)."""
        return sum(1 for b in self.blocks for i in b.instructions if i.is_memory)

    def __repr__(self) -> str:
        return "<RankedPath id=%d freq=%d ops=%d cov=%.1f%%>" % (
            self.path_id,
            self.freq,
            self.ops,
            self.coverage * 100,
        )


def rank_paths(
    profile: PathProfile,
    weight_fn: Optional[Callable[[Sequence[BasicBlock]], int]] = None,
    limit: Optional[int] = None,
) -> List[RankedPath]:
    """All executed paths of ``profile``, ranked by descending Pwt.

    ``weight_fn`` maps the block sequence to an operation weight; the
    default is :func:`count_ops` (the paper's energy-oriented metric).
    """
    wf = weight_fn or count_ops
    raw = []
    fwt = 0
    for path_id, freq in profile.counts.items():
        blocks = profile.decode(path_id)
        ops = wf(blocks)
        pwt = freq * ops
        fwt += pwt
        raw.append((path_id, blocks, freq, ops, pwt))
    raw.sort(key=lambda t: (-t[4], t[0]))
    if limit is not None:
        ranked_raw = raw[:limit]
    else:
        ranked_raw = raw
    result = [
        RankedPath(
            path_id=pid,
            blocks=blocks,
            freq=freq,
            ops=ops,
            weight=pwt,
            coverage=(pwt / fwt) if fwt else 0.0,
        )
        for pid, blocks, freq, ops, pwt in ranked_raw
    ]
    return result


def top_k_coverage(profile: PathProfile, k: int = 5) -> List[float]:
    """Coverage fractions of the top-``k`` paths (Fig. 6 stacks)."""
    return [p.coverage for p in rank_paths(profile, limit=k)]


def path_overlap_count(
    ranked: Sequence[RankedPath], top_n: int = 5
) -> float:
    """Table II:C8 — geomean, over the blocks of the top-``top_n`` paths, of
    how many executed paths contain each block.

    A value of ``k`` means a typical hot-path block is shared by ``k``
    executed paths, which is the reuse argument motivating Braids.
    """
    import math

    top = ranked[:top_n]
    if not top:
        return 0.0
    membership: dict = {}
    for p in ranked:
        for b in set(p.blocks):
            membership[b] = membership.get(b, 0) + 1
    hot_blocks = {b for p in top for b in p.blocks}
    counts = [membership[b] for b in hot_blocks]
    if not counts:
        return 0.0
    log_sum = sum(math.log(c) for c in counts)
    return math.exp(log_sum / len(counts))
