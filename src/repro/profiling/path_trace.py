"""Path-trace analysis for BL-path target expansion (paper §IV.A, Table III).

During profiling we record the *sequence* of completed path ids.  The
successor histogram of that sequence tells us, for each path, which path
tends to execute next — the signal used to chain paths across loop back
edges and enlarge the offload unit.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence


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


class PathTraceAnalysis:
    """Successor structure of a path-id trace."""

    def __init__(self, trace: Sequence[int]):
        self.trace = list(trace)
        self._succ: Dict[int, Counter] = defaultdict(Counter)
        for cur, nxt in zip(self.trace, self.trace[1:]):
            self._succ[cur][nxt] += 1

    def successor_stats(self, path_id: int) -> SuccessorStats:
        hist = self._succ.get(path_id, Counter())
        total = sum(hist.values())
        if total == 0:
            return SuccessorStats(path_id, 0, None, 0)
        best, count = hist.most_common(1)[0]
        return SuccessorStats(path_id, total, best, count)
