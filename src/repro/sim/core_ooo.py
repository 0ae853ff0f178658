"""Trace-driven out-of-order host core model (macsim stand-in).

The model replays a dynamic basic-block trace and computes the cycle each
instruction allocates, issues, finishes and retires under the Table V
machine: 4-wide fetch/retire, 96-entry ROB, 6 ALUs + 2 FPUs (fully
pipelined) and perfect branch prediction (the paper's deliberately generous
baseline assumption).  Memory is a fixed latency: every load takes the
load latency the model is built with (path costs pass the rounded
calibrated average), every store one cycle.  The trace carries no
addresses, so no load waits on an older store: a store and a load to the
same address overlap exactly as they would to different ones.

Complexity is O(n) in trace length with small constants, so whole-workload
traces simulate in well under a second.

The replay loop reads each block through a decode made the first time the
block is seen: per non-φ instruction its functional unit, latency and
instruction operands (constants, arguments and globals are ready at
allocation, so they are never looked up), the block's event counts, added
to the result once per visit, and per incoming edge the φ copies the
rename performs.  The decode cache lives on the :class:`OOOModel`
instance — models are cheap and short-lived, which keeps the cache
trivially coherent with any IR transformation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..ir.block import BasicBlock
from ..ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Load,
    Ret,
    Store,
)
from .config import HostConfig


@dataclass
class OOOResult:
    """Cycle count and event census of one simulated trace."""

    cycles: int = 0
    instructions: int = 0  # allocated (non-φ) instructions
    int_ops: int = 0
    fp_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    phis: int = 0
    # host memory traffic below the L1, priced by the energy model; the
    # fixed-latency replay never sets them
    l2_hits: int = 0
    dram_accesses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mem_ops(self) -> float:
        """Loads + stores — the L1-port traffic the energy model prices."""
        return self.loads + self.stores

    def merge(self, other: "OOOResult") -> "OOOResult":
        """Aggregate two disjoint trace segments (cycles add)."""
        out = OOOResult()
        for name in vars(out):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out


#: issue-to-done latency of a store
_STORE_LATENCY = 1

#: functional unit a micro-op issues to
_FU_NONE = 0  # loads, stores and branches: done = ready + latency
_FU_ALU = 1
_FU_FPU = 2

#: :class:`OOOResult` counters a block decode tallies, in order
_COUNTED = ("phis", "instructions", "int_ops", "fp_ops", "loads", "stores",
            "branches")


class _DecodedBlock:
    """One block as the walk reads it.

    ``uops`` holds one ``(fu, latency, operands, result)`` tuple per
    non-φ instruction.  ``operands`` keeps only the instruction operands,
    the only values that can have a finish time; ``result`` is the
    instruction when it writes a value, else ``None``.  ``counts`` are the
    block's :data:`_COUNTED` tallies.  ``moves`` memoizes, per
    predecessor (``None`` at an invocation start), the φ copies of that
    edge as ``(φ, source)`` pairs in block order, the source ``None``
    when it is not an instruction (a value with no finish time).
    """

    __slots__ = ("phis", "uops", "counts", "moves")

    def __init__(self, block: BasicBlock, load_latency: int):
        phis = block.phis
        uops = []
        counts = dict.fromkeys(_COUNTED, 0)
        counts["phis"] = len(phis)
        for inst in block.instructions[len(phis):]:
            if isinstance(inst, Load):
                fu, latency, counter = _FU_NONE, load_latency, "loads"
            elif isinstance(inst, Store):
                fu, latency, counter = _FU_NONE, _STORE_LATENCY, "stores"
            elif isinstance(inst, (Branch, CondBranch, Ret)):
                fu, latency, counter = _FU_NONE, 1, "branches"
            elif inst.is_float:
                fu, latency, counter = _FU_FPU, max(1, inst.latency), "fp_ops"
            else:
                fu, latency, counter = _FU_ALU, max(1, inst.latency), "int_ops"
            counts["instructions"] += 1
            counts[counter] += 1
            operands = tuple(
                op for op in inst.operands if isinstance(op, Instruction)
            )
            result = None if inst.type.is_void else inst
            uops.append((fu, latency, operands, result))
        self.phis = phis
        self.uops = uops
        self.counts = tuple(counts.values())
        self.moves: Dict[Optional[BasicBlock], tuple] = {}

    def moves_from(self, prev: Optional[BasicBlock]) -> tuple:
        """The φ copies of the edge ``prev`` -> this block."""
        moves = []
        for phi in self.phis:
            src = phi.incoming_for(prev)
            moves.append((phi, src if isinstance(src, Instruction) else None))
        moves = self.moves[prev] = tuple(moves)
        return moves


class OOOModel:
    """Replays block traces through the OOO timing model."""

    def __init__(
        self,
        config: Optional[HostConfig] = None,
        fixed_load_latency: int = 2,
    ):
        self.config = config or HostConfig()
        self.fixed_load_latency = fixed_load_latency
        self._decoded: Dict[BasicBlock, _DecodedBlock] = {}

    def simulate(self, block_trace: Iterable[Optional[BasicBlock]]) -> OOOResult:
        """Simulate a block trace (``None`` entries separate invocations)."""
        cfg = self.config
        finish: Dict[Instruction, float] = {}
        finish_get = finish.get

        fetch_width = cfg.fetch_width
        rob_entries = cfg.rob_entries
        retire_width = cfg.retire_width
        # retire times of the in-flight window; a slot not yet written
        # holds 0.0, which never stalls allocation
        rob = [0.0] * rob_entries
        rob_pos = 0
        retire_times = [0.0] * retire_width
        retire_pos = 0
        last_retire = 0.0
        alloc_cycle = 0.0
        alloc_in_cycle = 0

        alu_free = [0.0] * cfg.int_alus
        fpu_free = [0.0] * cfg.fp_units
        heapreplace = heapq.heapreplace

        decoded = self._decoded
        load_latency = self.fixed_load_latency
        visits = []  # the counts of each block visited, summed at the end
        prev_block: Optional[BasicBlock] = None
        for block in block_trace:
            if block is None:
                prev_block = None
                continue
            entry = decoded.get(block)
            if entry is None:
                entry = decoded[block] = _DecodedBlock(block, load_latency)
            if entry.phis:
                # register rename: each φ forwards from the taken edge
                moves = entry.moves.get(prev_block)
                if moves is None:
                    moves = entry.moves_from(prev_block)
                for phi, src in moves:
                    finish[phi] = finish_get(src, 0.0)
            visits.append(entry.counts)

            for fu, latency, operands, result in entry.uops:
                # -- allocate (fetch/rename bandwidth + ROB occupancy) ------
                if alloc_in_cycle >= fetch_width:
                    alloc_cycle += 1
                    alloc_in_cycle = 0
                oldest = rob[rob_pos]
                if oldest > alloc_cycle:
                    alloc_cycle = oldest
                    alloc_in_cycle = 0
                alloc_in_cycle += 1

                # -- operand readiness ---------------------------------------
                ready = alloc_cycle
                for op in operands:
                    t = finish_get(op, 0.0)
                    if t > ready:
                        ready = t

                # -- issue / execute ------------------------------------------
                if fu == _FU_NONE:
                    done = ready + latency
                else:
                    units = alu_free if fu == _FU_ALU else fpu_free
                    unit = units[0]
                    start = ready if ready > unit else unit
                    heapreplace(units, start + 1)
                    done = start + latency

                if result is not None:
                    finish[result] = done

                # -- retire (in order, retire_width per cycle) -----------------
                retire = done
                if last_retire > retire:
                    retire = last_retire
                slot = retire_times[retire_pos] + 1
                if slot > retire:
                    retire = slot
                retire_times[retire_pos] = retire
                retire_pos += 1
                if retire_pos == retire_width:
                    retire_pos = 0
                last_retire = retire
                rob[rob_pos] = retire
                rob_pos += 1
                if rob_pos == rob_entries:
                    rob_pos = 0

            prev_block = block

        result = OOOResult(
            **{name: sum(col) for name, col in zip(_COUNTED, zip(*visits))}
        )
        result.cycles = int(last_retire) if result.instructions else 0
        return result
