"""Reference oracle for the profile post-pass.

Replays a recorded :class:`~repro.interp.events.FunctionTrace` event by
event with the online instrumentation semantics: an activation stack
whose frames each carry a Ball–Larus path register, flushed when a back
edge fires or the activation exits; per-event edge, block and branch
counters; and a per-block opcode count.  Every numbering query goes
through :class:`BallLarusNumbering`'s methods, with no precomputed table.
Tests check ``PathProfile.from_trace``, ``EdgeProfile.from_trace`` and
``OpMix.from_trace`` against it; nothing in ``src/`` uses it.
"""

from __future__ import annotations

from collections import Counter

from repro.ir.instructions import CondBranch
from repro.profiling import BallLarusNumbering, EdgeProfile, PathProfile


class ReplayOracle:
    """The online path, edge and op-mix profilers of one function."""

    def __init__(self, fn):
        self.paths = PathProfile(fn, BallLarusNumbering(fn))
        self.edges = EdgeProfile(fn)
        self.opcodes: Counter = Counter()
        # one [path register, last block] per open activation
        self._stack = []

    def on_function_entry(self):
        self._stack.append([0, None])

    def on_block(self, block, prev):
        frame = self._stack[-1]
        numbering = self.paths.numbering
        if prev is None:
            frame[0] = 0
        elif numbering.is_back_edge(prev, block):
            self._flush(frame[0] + numbering.back_edge_counter_value(prev))
            frame[0] = numbering.back_edge_reset_value(block)
        else:
            frame[0] += numbering.edge_value(prev, block)
        frame[1] = block
        self.edges.block_counts[block] += 1
        if prev is not None:
            self.edges.edge_counts[(prev, block)] += 1
        for inst in block.instructions:
            self.opcodes[inst.opcode] += 1

    def on_branch(self, block, taken):
        if taken:
            self.edges.branch_taken[block] += 1
        else:
            self.edges.branch_not_taken[block] += 1

    def on_function_exit(self):
        register, last = self._stack.pop()
        self._flush(register + self.paths.numbering.exit_value(last))

    def _flush(self, path_id):
        self.paths.counts[path_id] += 1
        self.paths.trace.append(path_id)


def replay(trace) -> ReplayOracle:
    """Drive a :class:`ReplayOracle` through ``trace``'s events."""
    oracle = ReplayOracle(trace.function)
    for blocks in trace.invocation_sequences():
        oracle.on_function_entry()
        prev = None
        for block in blocks:
            if prev is not None:
                term = prev.terminator
                if isinstance(term, CondBranch):
                    oracle.on_branch(prev, block is term.true_target)
            oracle.on_block(block, prev)
            prev = block
        oracle.on_function_exit()
    return oracle
