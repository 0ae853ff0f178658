"""Ball–Larus path numbering (Ball & Larus, MICRO 1996).

The CFG of a routine is turned into a DAG by replacing each back edge
``u -> v`` with two *fake* edges: ``ENTRY -> v`` and ``u -> EXIT``.  A
virtual EXIT node also absorbs all return blocks, so routines with several
``ret`` s are handled uniformly.  ``NumPaths`` is computed bottom-up over the
DAG and edge increments are assigned so that summing the increments along
any entry-to-exit DAG path produces a *unique, compact* path id in
``[0, NumPaths(ENTRY))``.

The numbering object supports the three operations the rest of the stack
needs:

* instrumentation semantics for the path-profile pass (:meth:`edge_value`,
  :meth:`is_back_edge`, fake-edge values),
* decoding a path id back to its basic-block sequence (:meth:`decode`),
* encoding a block sequence to its id (:meth:`encode`, the test inverse).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..analysis.cfg import CFG
from ..analysis.dominators import DominatorTree
from ..analysis.loops import back_edges
from ..ir.block import BasicBlock
from ..ir.function import Function

#: Virtual sink absorbing all returns and back-edge sources.
EXIT = "<BL-EXIT>"
#: Virtual source for fake edges into loop headers.
ENTRY = "<BL-ENTRY>"
# Compare sentinels with ==, never `is`: a numbering that round-trips
# through pickle (the artifact cache) carries copies of these strings.


class PathNumberingError(Exception):
    """Raised on malformed decode/encode requests."""


class BallLarusNumbering:
    """Edge-increment assignment for one function."""

    def __init__(self, fn: Function):
        self.function = fn
        self.cfg = CFG(fn)
        dom = DominatorTree.compute(self.cfg)
        # ordered, not a set: blocks hash by identity, so a set would
        # pickle in memory-address order and profile artifacts would
        # differ from run to run; only `in` tests read it
        self.back_edge_set = dict.fromkeys(back_edges(self.cfg, dom))

        # DAG successor lists.  Order matters (it fixes the numbering):
        # real successor order first, then fake edges in insertion order.
        self._dag_succs: Dict[object, List[object]] = {ENTRY: [], EXIT: []}
        for block in self.cfg.blocks:
            self._dag_succs[block] = []
        self._dag_succs[ENTRY].append(self.cfg.entry)

        #: value of fake edge ENTRY -> header, keyed by header
        self._fake_entry_targets: List[BasicBlock] = []
        #: back-edge sources with a fake edge to EXIT
        self._fake_exit_sources: List[BasicBlock] = []

        for block in self.cfg.blocks:
            for succ in self.cfg.succs(block):
                if (block, succ) in self.back_edge_set:
                    if succ not in self._fake_entry_targets:
                        self._fake_entry_targets.append(succ)
                        self._dag_succs[ENTRY].append(succ)
                    if block not in self._fake_exit_sources:
                        self._fake_exit_sources.append(block)
                        self._dag_succs[block].append(EXIT)
                else:
                    self._dag_succs[block].append(succ)
            if not self.cfg.succs(block):  # return block
                self._dag_succs[block].append(EXIT)

        self.num_paths_from: Dict[object, int] = {}
        self.edge_values: Dict[Tuple[object, object], int] = {}
        self._assign_values()
        #: total number of static acyclic paths in the routine
        self.total_paths = self.num_paths_from[ENTRY]

    # -- numbering ------------------------------------------------------------

    def _topo_order(self) -> List[object]:
        """Topological order of the DAG (ENTRY first)."""
        indeg: Dict[object, int] = {n: 0 for n in self._dag_succs}
        for node, succs in self._dag_succs.items():
            for s in succs:
                indeg[s] += 1
        order: List[object] = []
        work = [n for n, d in indeg.items() if d == 0]
        while work:
            node = work.pop()
            order.append(node)
            for s in self._dag_succs[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    work.append(s)
        if len(order) != len(self._dag_succs):
            raise PathNumberingError(
                "CFG of %s is irreducible for BL numbering" % self.function.name
            )
        return order

    def _assign_values(self) -> None:
        order = self._topo_order()
        for node in reversed(order):
            succs = self._dag_succs[node]
            if node == EXIT or not succs:
                self.num_paths_from[node] = 1
                continue
            total = 0
            for s in succs:
                self.edge_values[(node, s)] = total
                total += self.num_paths_from[s]
            self.num_paths_from[node] = total

    # -- instrumentation queries -----------------------------------------------

    def is_back_edge(self, src: BasicBlock, dst: BasicBlock) -> bool:
        return (src, dst) in self.back_edge_set

    def edge_value(self, src: object, dst: object) -> int:
        """Increment of a DAG edge (real edge, or fake via ENTRY/EXIT)."""
        try:
            return self.edge_values[(src, dst)]
        except KeyError:
            raise PathNumberingError(
                "no DAG edge %s -> %s"
                % (getattr(src, "name", src), getattr(dst, "name", dst))
            ) from None

    def back_edge_counter_value(self, src: BasicBlock) -> int:
        """Increment applied when a back edge fires: value of ``src -> EXIT``."""
        return self.edge_value(src, EXIT)

    def back_edge_reset_value(self, dst: BasicBlock) -> int:
        """Path-register reset when a back edge lands on header ``dst``:
        value of ``ENTRY -> dst``."""
        return self.edge_value(ENTRY, dst)

    def exit_value(self, ret_block: BasicBlock) -> int:
        """Increment applied when returning from ``ret_block``."""
        return self.edge_value(ret_block, EXIT)

    # -- encode / decode ----------------------------------------------------------

    def decode(self, path_id: int) -> List[BasicBlock]:
        """Recover the basic-block sequence of ``path_id``.

        The sequence starts at the function entry or at a loop header
        (fake-entry paths) and ends at a return block or a back-edge source.
        """
        if not (0 <= path_id < self.total_paths):
            raise PathNumberingError(
                "path id %d out of range [0, %d)" % (path_id, self.total_paths)
            )
        blocks: List[BasicBlock] = []
        node: object = ENTRY
        remaining = path_id
        while node != EXIT:
            succs = self._dag_succs[node]
            chosen = None
            chosen_val = -1
            for s in succs:
                v = self.edge_values[(node, s)]
                if v <= remaining and v > chosen_val:
                    chosen, chosen_val = s, v
            if chosen is None:  # pragma: no cover - numbering guarantees a hit
                raise PathNumberingError("decode stuck at %r" % node)
            remaining -= chosen_val
            node = chosen
            if node != EXIT:
                blocks.append(node)
        if remaining != 0:  # pragma: no cover - numbering guarantees exactness
            raise PathNumberingError("decode residue %d" % remaining)
        return blocks

    def encode(self, blocks: Sequence[BasicBlock]) -> int:
        """Inverse of :meth:`decode` (used by property tests)."""
        if not blocks:
            raise PathNumberingError("cannot encode an empty path")
        path_id = 0
        prev: object = ENTRY
        for block in blocks:
            path_id += self.edge_value(prev, block)
            prev = block
        path_id += self.edge_value(prev, EXIT)
        return path_id

    def __repr__(self) -> str:
        return "<BallLarusNumbering %s: %d static paths>" % (
            self.function.name,
            self.total_paths,
        )
