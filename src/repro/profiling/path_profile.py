"""Runtime path-profile collection over the interpreter's trace stream.

:class:`PathProfiler` implements Ball–Larus instrumentation semantics as a
tracer: a path register ``r`` per activation, incremented with edge values,
flushed to the profile when a back edge fires or the function returns.  It
simultaneously records the *path trace* — the sequence of completed path ids
— which §IV.A's target-expansion analysis consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..interp.events import Tracer
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
    # per-path recurrence summaries (braid effective-II): config-independent
    # integer tuples, or a build failure, built once per profile; never
    # pickled, so profile artifacts keep their bytes
    _recurrence: Dict[int, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_recurrence"]
        return state

    def __setstate__(self, state):
        # setattr interns the names as default unpickling does, so a
        # loaded profile pickles to the same bytes again
        for name, value in state.items():
            setattr(self, name, value)
        self._recurrence = {}

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

    def recurrence_summary(
        self, path_id: int, build: Callable[[], object]
    ) -> object:
        """The recurrence summary of ``path_id``'s frame: ``build()`` on
        first use, then kept for the profile's lifetime, so every grid
        point of a sweep over an in-memory profile shares it."""
        entry = self._recurrence.get(path_id)
        if entry is None:
            entry = self._recurrence[path_id] = build()
        return entry


class PathProfiler(Tracer):
    """Collects Ball–Larus path profiles for selected functions.

    Activations are kept on a stack so traced functions may call each other
    (or themselves) while each activation maintains its own path register.
    """

    def __init__(self, functions: Optional[List[Function]] = None):
        self.filter = set(functions) if functions is not None else None
        self.profiles: Dict[Function, PathProfile] = {}
        # activation stack entries: [function, register, last_block] or None
        # for untraced activations
        self._stack: List[Optional[list]] = []

    # -- profile access -----------------------------------------------------------

    def profile_for(self, fn: Function) -> PathProfile:
        profile = self.profiles.get(fn)
        if profile is None:
            profile = PathProfile(fn, BallLarusNumbering(fn))
            self.profiles[fn] = profile
        return profile

    # -- tracer hooks ---------------------------------------------------------------

    def on_function_entry(self, fn: Function) -> None:
        if self.filter is not None and fn not in self.filter:
            self._stack.append(None)
            return
        self.profile_for(fn)
        self._stack.append([fn, 0, None])

    def on_block(self, fn: Function, block: BasicBlock, prev: Optional[BasicBlock]) -> None:
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame is None:
            return
        profile = self.profiles[frame[0]]
        numbering = profile.numbering
        if prev is None:
            frame[1] = 0
        elif numbering.is_back_edge(prev, block):
            path_id = frame[1] + numbering.back_edge_counter_value(prev)
            profile.counts[path_id] += 1
            profile.trace.append(path_id)
            frame[1] = numbering.back_edge_reset_value(block)
        else:
            frame[1] += numbering.edge_value(prev, block)
        frame[2] = block

    def on_function_exit(self, fn: Function) -> None:
        if not self._stack:
            return
        frame = self._stack.pop()
        if frame is None:
            return
        profile = self.profiles[frame[0]]
        last_block = frame[2]
        if last_block is not None:
            path_id = frame[1] + profile.numbering.exit_value(last_block)
            profile.counts[path_id] += 1
            profile.trace.append(path_id)


def profile_paths(module, fn_name: str, args, interpreter_cls=None, **interp_kwargs):
    """Convenience: run ``fn_name(args)`` once and return its PathProfile."""
    from ..interp.interpreter import Interpreter

    cls = interpreter_cls or Interpreter
    fn = module.get_function(fn_name)
    profiler = PathProfiler([fn])
    interp = cls(module, tracer=profiler, **interp_kwargs)
    interp.run(fn, args)
    return profiler.profiles[fn]


__all__ = ["PathProfile", "PathProfiler", "profile_paths"]
