"""Run-length trace kernels for the offload simulator (perf layer 3).

The path trace a profiled workload produces is extremely repetitive: a hot
loop flushes the same Ball–Larus path id thousands of times in a row, so
the trace is long but its *run-length encoding* is short.  Everything the
offload accounting needs per event is a function of (path id, was the
previous event part of the same accelerator run) — which means the whole
event stream can be folded run by run instead of event by event, O(#runs)
instead of O(#events), with no change in what is charged.

Bit-identity between the fast and reference paths is guaranteed by
construction, not by hope: both paths reduce the trace to the same
integer :class:`ChargeCensus` (how many events of each charge class hit
each path id), and a single shared fold (:meth:`ChargeCensus` consumers
in :mod:`repro.sim.offload`) turns the census into cycles and energy with
one deterministic summation order.  Equal censuses therefore give
bitwise-equal floats; the property tests in
``tests/sim/test_trace_kernels.py`` enforce census equality on random
traces, and the event-by-event
:class:`~repro.sim.offload.EventOracleSimulator` matches production
outcomes on a suite slice, cleanly and under an injected worker crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, Iterable, List, Sequence, Set, Tuple


@dataclass(frozen=True)
class RLETrace:
    """Run-length view of a path trace: runs of identical path ids."""

    #: (path id, run length) in trace order
    runs: Tuple[Tuple[int, int], ...]
    n_events: int

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def rle_ratio(self) -> float:
        """#runs / #events — lower means the run fold saves more work."""
        return self.n_runs / self.n_events if self.n_events else 1.0

    def expand(self) -> List[int]:
        """The original event stream (reference/testing only)."""
        out: List[int] = []
        for pid, length in self.runs:
            out.extend([pid] * length)
        return out

    def per_pid_run_stats(self) -> Dict[int, Tuple[int, int, int]]:
        """pid -> (runs, events, longest run) summary statistics."""
        stats: Dict[int, Tuple[int, int, int]] = {}
        for pid, length in self.runs:
            n_runs, n_events, longest = stats.get(pid, (0, 0, 0))
            stats[pid] = (n_runs + 1, n_events + length, max(longest, length))
        return stats


def run_length_encode(trace: Sequence[int]) -> RLETrace:
    """RLE of a path trace; computed once per workload and memoized by
    :class:`~repro.sim.memo.SimulationMemo`."""
    runs = tuple(
        (pid, sum(1 for _ in group)) for pid, group in groupby(trace)
    )
    return RLETrace(runs=runs, n_events=len(trace))


@dataclass
class ChargeCensus:
    """Integer census of what the offload accounting must charge.

    Each trace event lands in exactly one class:

    ``run_starts[pid]``  successful invocations that begin an accelerator
                         run (full makespan + live-value transfer);
    ``pipelined[pid]``   successful invocations pipelined behind the
                         previous one (one initiation interval);
    ``failures[pid]``    invocations whose guard failed (frame + rollback
                         + host re-execution of the actual path);
    ``host[pid]``        events the predictor declined (host path cost).

    The census is pure integers, so the events path and the RLE path can
    be compared for *exact* equality, and the shared cycles/energy fold
    downstream sees identical inputs.
    """

    run_starts: Dict[int, int] = field(default_factory=dict)
    pipelined: Dict[int, int] = field(default_factory=dict)
    failures: Dict[int, int] = field(default_factory=dict)
    host: Dict[int, int] = field(default_factory=dict)

    @property
    def invocations(self) -> int:
        return (
            sum(self.run_starts.values())
            + sum(self.pipelined.values())
            + sum(self.failures.values())
        )

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _bump(table: Dict[int, int], pid: int, n: int = 1) -> None:
    table[pid] = table.get(pid, 0) + n


def census_from_events(
    trace: Sequence[int],
    decisions: Sequence[bool],
    targets: Set[int],
    pipelined: bool,
) -> ChargeCensus:
    """Reference kernel: classify the trace one event at a time.

    This is the exact control flow of the original accounting loop in
    ``OffloadSimulator._simulate_offload`` with the float accumulation
    factored out; kept as the reference the property tests and
    :class:`~repro.sim.offload.EventOracleSimulator` cross-check the
    run fold against.
    """
    census = ChargeCensus()
    in_run = False
    for pid, invoke in zip(trace, decisions):
        if invoke:
            if pid in targets:
                if in_run and pipelined:
                    _bump(census.pipelined, pid)
                else:
                    _bump(census.run_starts, pid)
                in_run = True
            else:
                _bump(census.failures, pid)
                in_run = False
        else:
            _bump(census.host, pid)
            in_run = False
    return census


@dataclass(frozen=True)
class SegmentCharge:
    """Closed-form census increments of one decision segment.

    Exactly one of the four charge groups is non-zero per segment (a
    segment has a constant (pid, decision)); ``run_starts + pipelined``
    together cover a successful segment that begins or extends an
    accelerator run.
    """

    pid: int
    run_starts: int = 0
    pipelined: int = 0
    failures: int = 0
    host: int = 0


def iter_segment_charges(
    segments: Iterable[Tuple[int, bool, int]],
    targets: Set[int],
    pipelined: bool,
) -> "Iterable[SegmentCharge]":
    """Classify (pid, invoke, length) decision segments one at a time.

    This generator is the *single* statement of the run-accounting
    semantics: :func:`census_from_segments` sums its yields into the
    integer census the attribution fold consumes, and the simulated
    timeline (:meth:`~repro.sim.offload.OffloadSimulator.
    invocation_timeline`) replays the same yields as duration events —
    so the timeline can never drift from what was charged.  Only the
    one-bit ``in_run`` state crosses segment boundaries.
    """
    in_run = False
    for pid, invoke, length in segments:
        if length <= 0:
            continue
        if invoke:
            if pid in targets:
                if pipelined:
                    if in_run:
                        yield SegmentCharge(pid, pipelined=length)
                    else:
                        yield SegmentCharge(
                            pid, run_starts=1, pipelined=length - 1
                        )
                else:
                    yield SegmentCharge(pid, run_starts=length)
                in_run = True
            else:
                yield SegmentCharge(pid, failures=length)
                in_run = False
        else:
            yield SegmentCharge(pid, host=length)
            in_run = False


def census_from_segments(
    segments: Iterable[Tuple[int, bool, int]],
    targets: Set[int],
    pipelined: bool,
) -> ChargeCensus:
    """Fast kernel: fold (pid, invoke, length) decision segments.

    Segments partition the trace in order with a constant (pid, decision)
    per segment (see
    :func:`~repro.accel.invocation.evaluate_predictor_runs`), so each
    segment collapses to the closed-form increments
    :func:`iter_segment_charges` yields.
    """
    census = ChargeCensus()
    for charge in iter_segment_charges(segments, targets, pipelined):
        if charge.run_starts:
            _bump(census.run_starts, charge.pid, charge.run_starts)
        if charge.pipelined:
            _bump(census.pipelined, charge.pid, charge.pipelined)
        if charge.failures:
            _bump(census.failures, charge.pid, charge.failures)
        if charge.host:
            _bump(census.host, charge.pid, charge.host)
    return census


__all__ = [
    "ChargeCensus",
    "RLETrace",
    "SegmentCharge",
    "census_from_events",
    "census_from_segments",
    "iter_segment_charges",
    "run_length_encode",
]
