"""Path-trace analysis for BL-path target expansion (paper §IV.A, Table III).

During profiling we record the *sequence* of completed path ids.  The
successor histogram of that sequence tells us, for each path, which path
tends to execute next — the signal used to chain paths across loop back
edges and enlarge the offload unit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence


@dataclass
class SuccessorStats:
    """Successor histogram of a single path id."""

    path_id: int
    total: int
    best_successor: Optional[int]
    best_count: int

    @property
    def bias(self) -> float:
        """Probability that ``best_successor`` follows ``path_id``."""
        return self.best_count / self.total if self.total else 0.0

    @property
    def repeats_itself(self) -> bool:
        return self.best_successor == self.path_id


def successor_stats(trace: Sequence[int], path_id: int) -> SuccessorStats:
    """The successor histogram of ``path_id`` in the path-id ``trace``."""
    hist = Counter(
        nxt for cur, nxt in zip(trace, islice(trace, 1, None)) if cur == path_id
    )
    total = sum(hist.values())
    if total == 0:
        return SuccessorStats(path_id, 0, None, 0)
    best, count = hist.most_common(1)[0]
    return SuccessorStats(path_id, total, best, count)
