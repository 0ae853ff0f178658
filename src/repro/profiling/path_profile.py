"""Ball–Larus path profiles, derived from a recorded block stream.

:meth:`PathProfile.from_trace` replays the instrumentation of Ball & Larus
over a :class:`~repro.interp.events.FunctionTrace` after the run: a path
register ``r`` per activation, incremented with edge values, flushed to the
profile when a back edge fires or the activation ends.  The same pass keeps
the *path trace* — the sequence of completed path ids — which §IV.A's
target-expansion analysis consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..obs import counter as _obs_counter, enabled as _obs_enabled
from .ball_larus import BallLarusNumbering


@dataclass
class PathProfile:
    """Per-function dynamic path profile."""

    function: Function
    numbering: BallLarusNumbering
    counts: Counter = field(default_factory=Counter)
    trace: List[int] = field(default_factory=list)
    # decode memo: region discovery decodes the same hot ids repeatedly, so
    # cache the block sequences; excluded from equality/pickle identity.
    _decoded: Dict[int, List[BasicBlock]] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: products computed from this profile, keyed ``(kind, extra)``: the
    #: per-path recurrence summaries (``("recurrence", path id)``) and the
    #: :class:`~repro.sim.memo.SimulationMemo` entries (host path costs,
    #: run-length view, predictor census); never pickled or compared, so
    #: profile artifacts keep their bytes
    memo_table: Dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def from_trace(cls, trace) -> "PathProfile":
        """Derive the path profile of a recorded trace in one pass.

        Each CFG edge has one action.  An ordinary edge adds its increment
        to ``r``.  A back edge emits ``r + back_edge_counter_value`` and
        resets ``r`` to the header's ``back_edge_reset_value``.  Each
        activation end emits ``r + exit_value``; an activation that
        stopped on a block with no edge to EXIT (a run that raised) gets
        :class:`~repro.profiling.ball_larus.PathNumberingError`.
        """
        fn = trace.function
        numbering = BallLarusNumbering(fn)
        # edge -> (increment, None) or, for a back edge, (increment, reset)
        actions = {}
        for src, dst in numbering.cfg.edges():
            if numbering.is_back_edge(src, dst):
                actions[(src, dst)] = (
                    numbering.back_edge_counter_value(src),
                    numbering.back_edge_reset_value(dst),
                )
            else:
                actions[(src, dst)] = (numbering.edge_value(src, dst), None)
        path_ids: List[int] = []
        emit = path_ids.append
        r = 0
        prev = None
        for block in trace.blocks:
            if block is None:  # activation boundary
                emit(r + numbering.exit_value(prev))
            elif prev is None:  # activation start
                r = 0
            else:
                increment, reset = actions[(prev, block)]
                if reset is None:
                    r += increment
                else:
                    emit(r + increment)
                    r = reset
            prev = block
        if prev is not None:
            emit(r + numbering.exit_value(prev))
        return cls(fn, numbering, Counter(path_ids), path_ids)

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["memo_table"]
        return state

    def __setstate__(self, state):
        # setattr interns the names as default unpickling does, so a
        # loaded profile pickles to the same bytes again
        for name, value in state.items():
            setattr(self, name, value)
        self.memo_table = {}

    @property
    def executed_paths(self) -> int:
        """Number of distinct paths observed (Table II:C1)."""
        return len(self.counts)

    @property
    def total_executions(self) -> int:
        return sum(self.counts.values())

    def top_paths(self, n: int) -> List[Tuple[int, int]]:
        """The ``n`` most frequent (path_id, count) pairs."""
        return self.counts.most_common(n)

    def decode(self, path_id: int) -> List[BasicBlock]:
        blocks = self._decoded.get(path_id)
        if blocks is None:
            blocks = self.numbering.decode(path_id)
            self._decoded[path_id] = blocks
            if _obs_enabled():
                _obs_counter("profile.decode.misses", 1,
                             help="Ball-Larus path decodes that walked the DAG",
                             function=self.function.name)
        elif _obs_enabled():
            _obs_counter("profile.decode.hits", 1,
                         help="Ball-Larus path decodes served by the memo",
                         function=self.function.name)
        return blocks

    def recurrence_summaries(
        self,
        path_ids: List[int],
        build: Callable[[List[int]], Dict[int, object]],
    ) -> List[object]:
        """The recurrence summaries of the ``path_ids``' frames, in order:
        ``build(missing)`` maps the ids not yet summarised to theirs, and
        the profile keeps them for its lifetime, so every grid point of a
        sweep over an in-memory profile shares them.  A summary reads no
        configuration, so its key is the path id alone."""
        table = self.memo_table
        missing = [pid for pid in path_ids if ("recurrence", pid) not in table]
        if missing:
            for pid, summary in build(missing).items():
                table["recurrence", pid] = summary
        return [table["recurrence", pid] for pid in path_ids]


__all__ = ["PathProfile"]
