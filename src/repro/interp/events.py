"""The dynamic record the interpreter keeps for each recorded function.

:class:`FunctionTrace` holds the full dynamic structure of a run (block
sequence + memory address stream).  Path, edge and op-mix profiles are
derived from it after the run, and the cycle simulators replay it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function


@dataclass
class FunctionTrace:
    """Dynamic record of one function's execution(s).

    ``blocks`` is the concatenated block sequence over all invocations, with
    ``None`` sentinels separating invocations.  ``memory`` is the address
    stream, in program order, as ``(opcode, address)`` pairs.
    """

    function: Function
    blocks: List[Optional[BasicBlock]] = field(default_factory=list)
    memory: List[Tuple[str, int]] = field(default_factory=list)
    invocations: int = 0
    #: simulation products of this trace (memory calibration), keyed by
    #: :class:`~repro.sim.memo.SimulationMemo`; never pickled or compared
    memo_table: Dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["memo_table"]
        return state

    def __setstate__(self, state):
        # setattr interns the names as default unpickling does, so a
        # loaded trace pickles to the same bytes again
        for name, value in state.items():
            setattr(self, name, value)
        self.memo_table = {}

    @property
    def dynamic_instructions(self) -> int:
        return sum(len(b) for b in self.blocks if b is not None)

    def block_counts(self) -> Counter:
        """Executions per block, in first-execution order."""
        counts = Counter(self.blocks)
        counts.pop(None, None)
        return counts

    def invocation_sequences(self) -> List[List[BasicBlock]]:
        """Split the block stream back into per-invocation sequences."""
        out: List[List[BasicBlock]] = []
        current: List[BasicBlock] = []
        for b in self.blocks:
            if b is None:
                if current:
                    out.append(current)
                current = []
            else:
                current.append(b)
        if current:
            out.append(current)
        return out
