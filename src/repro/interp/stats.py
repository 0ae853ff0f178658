"""Dynamic instruction-mix statistics.

Characterises what a workload actually executes — INT vs FP vs memory vs
control — which is the first thing an accelerator architect asks about a
candidate region (and what drives the energy split in Fig. 10's
discussion of FP workloads).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instructions import is_float_op


@dataclass
class OpMix:
    """Dynamic opcode census of one function."""

    function: Function
    opcodes: Counter = field(default_factory=Counter)

    @classmethod
    def from_trace(cls, trace) -> "OpMix":
        """The op mix of a recorded
        :class:`~repro.interp.events.FunctionTrace`."""
        return cls(trace.function, opcode_census(trace))

    @property
    def total(self) -> int:
        return sum(self.opcodes.values())

    def _share(self, predicate) -> float:
        if not self.total:
            return 0.0
        return sum(c for op, c in self.opcodes.items() if predicate(op)) / self.total

    @property
    def fp_share(self) -> float:
        return self._share(is_float_op)

    @property
    def memory_share(self) -> float:
        return self._share(lambda op: op in ("load", "store"))

    @property
    def control_share(self) -> float:
        return self._share(lambda op: op in ("br", "condbr", "ret", "phi"))

    @property
    def int_share(self) -> float:
        return max(
            0.0, 1.0 - self.fp_share - self.memory_share - self.control_share
        )

    def top(self, n: int = 5):
        return self.opcodes.most_common(n)


def opcode_census(trace) -> Counter:
    """Dynamic per-opcode execution counts reconstructed from a recorded
    :class:`~repro.interp.events.FunctionTrace`.

    Cost is static-instructions × distinct-blocks, not dynamic length:
    each block's opcode census is taken once and scaled by its execution
    count.  Opcodes keep their first-execution order.
    """
    census: Counter = Counter()
    for block, count in trace.block_counts().items():
        for inst in block.instructions:
            census[inst.opcode] += count
    return census
