"""Reference OOO walk for the host path-cost tests.

The timing model of :class:`~repro.sim.OOOModel`, walked plainly: every
uop looks up every operand's finish time, bumps the
:class:`~repro.sim.core_ooo.OOOResult` counters one event at a time,
resolves each φ's source on every visit, pops and pushes the FU heaps
and grows its ROB list.  Tests compare the model with it field for
field; nothing in ``src/`` uses it.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.ir.values import Value
from repro.sim.config import HostConfig
from repro.sim.core_ooo import OOOResult

#: micro-op kinds produced by block decode
_UOP_PHI = 0
_UOP_LOAD = 1
_UOP_STORE = 2
_UOP_BRANCH = 3
_UOP_INT = 4
_UOP_FP = 5

#: issue-to-done latency of a store
_STORE_LATENCY = 1


class ReferenceOOOModel:
    """The per-uop walk, decoded into ``(kind, inst, latency, writes)``."""

    def __init__(
        self,
        config: Optional[HostConfig] = None,
        fixed_load_latency: int = 2,
    ):
        self.config = config or HostConfig()
        self.fixed_load_latency = fixed_load_latency
        self._uops: Dict[BasicBlock, List[Tuple[int, Instruction, int, bool]]] = {}

    def _decode(self, block: BasicBlock) -> List[Tuple[int, Instruction, int, bool]]:
        """Classify each instruction once: (kind, inst, issue latency,
        writes_result).  Memoized per block on this model instance."""
        uops = []
        for inst in block.instructions:
            writes = not inst.type.is_void
            if isinstance(inst, Phi):
                uops.append((_UOP_PHI, inst, 0, writes))
            elif isinstance(inst, Load):
                uops.append((_UOP_LOAD, inst, self.fixed_load_latency, writes))
            elif isinstance(inst, Store):
                uops.append((_UOP_STORE, inst, _STORE_LATENCY, writes))
            elif isinstance(inst, (Branch, CondBranch, Ret)):
                uops.append((_UOP_BRANCH, inst, 1, writes))
            elif inst.is_float:
                uops.append((_UOP_FP, inst, max(1, inst.latency), writes))
            else:
                uops.append((_UOP_INT, inst, max(1, inst.latency), writes))
        return uops

    def simulate(self, block_trace: Iterable[Optional[BasicBlock]]) -> OOOResult:
        """Simulate a block trace (``None`` entries separate invocations)."""
        cfg = self.config
        result = OOOResult()

        finish: Dict[Value, float] = {}

        rob: List[float] = []  # retire times of in-flight window (ring)
        rob_head = 0
        alloc_cycle = 0.0
        alloc_in_cycle = 0
        retire_times: List[float] = [0.0] * cfg.retire_width
        retire_idx = 0
        last_retire = 0.0

        alu_free = [0.0] * cfg.int_alus
        fpu_free = [0.0] * cfg.fp_units
        heapq.heapify(alu_free)
        heapq.heapify(fpu_free)

        uop_cache = self._uops
        fetch_width = cfg.fetch_width
        retire_width = cfg.retire_width
        rob_entries = cfg.rob_entries
        heappush = heapq.heappush
        heappop = heapq.heappop

        prev_block: Optional[BasicBlock] = None
        for block in block_trace:
            if block is None:
                prev_block = None
                continue
            uops = uop_cache.get(block)
            if uops is None:
                uops = self._decode(block)
                uop_cache[block] = uops
            for kind, inst, latency, writes in uops:
                if kind == _UOP_PHI:
                    # register rename: value forwards from the taken edge
                    result.phis += 1
                    if prev_block is not None:
                        src = inst.incoming_for(prev_block)
                        finish[inst] = finish.get(src, 0.0) if src is not None else 0.0
                    else:
                        finish[inst] = 0.0
                    continue

                # -- allocate (fetch/rename bandwidth + ROB occupancy) ------
                if alloc_in_cycle >= fetch_width:
                    alloc_cycle += 1
                    alloc_in_cycle = 0
                if len(rob) >= rob_entries:
                    oldest = rob[rob_head % rob_entries]
                    if oldest > alloc_cycle:
                        alloc_cycle = oldest
                        alloc_in_cycle = 0
                alloc_in_cycle += 1
                result.instructions += 1

                # -- operand readiness ---------------------------------------
                ready = alloc_cycle
                for op in inst.operands:
                    t = finish.get(op)
                    if t is not None and t > ready:
                        ready = t

                # -- issue / execute ------------------------------------------
                if kind == _UOP_INT:
                    unit = heappop(alu_free)
                    start = ready if ready > unit else unit
                    heappush(alu_free, start + 1)
                    result.int_ops += 1
                    done = start + latency
                elif kind == _UOP_FP:
                    unit = heappop(fpu_free)
                    start = ready if ready > unit else unit
                    heappush(fpu_free, start + 1)
                    result.fp_ops += 1
                    done = start + latency
                elif kind == _UOP_LOAD:
                    done = ready + latency
                    result.loads += 1
                elif kind == _UOP_STORE:
                    done = ready + latency
                    result.stores += 1
                else:  # _UOP_BRANCH
                    done = ready + 1
                    result.branches += 1

                if writes:
                    finish[inst] = done

                # -- retire (in order, retire_width per cycle) -----------------
                width_slot = retire_times[retire_idx % retire_width]
                retire = max(done, last_retire, width_slot + 1)
                retire_times[retire_idx % retire_width] = retire
                retire_idx += 1
                last_retire = retire
                if len(rob) < rob_entries:
                    rob.append(retire)
                else:
                    rob[rob_head % rob_entries] = retire
                    rob_head += 1

            prev_block = block

        result.cycles = int(last_retire) if result.instructions else 0
        return result
