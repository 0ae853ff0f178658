"""Software frames (paper §V).

A frame packages an offload region (BL-path or Braid) as an *atomic*,
fully-speculative unit:

* in-region branches whose other side leaves the region become **guards** —
  asynchronous checks that decide, by frame end, whether speculation held;
* φ-nodes with a single remaining in-region predecessor **cancel** (their
  value is pinned by the chosen control flow — Table II:C6);
* φ-nodes at braid merge points become **ψ selects** driven by the merge's
  controlling predicate (non-speculative predication);
* every store is instrumented with an **undo-log** entry so externally
  visible state can be reverted on guard failure;
* all remaining operations are free to hoist above guards — the speculative
  dependence graph (``CGRAScheduler._build_deps``) keeps only store→store
  ordering.

The frame is accelerator-microarchitecture independent: it needs no store
buffers or hardware checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.cfg import CFG
from ..analysis.dominators import DominatorTree
from ..ir.block import BasicBlock
from ..ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Phi,
    Ret,
    Store,
)
from ..ir.values import Argument, Value
from ..regions.region import Region


@dataclass
class Guard:
    """A converted branch: speculation fails if the branch leaves the region.

    ``stay_targets`` are the successors that keep execution inside the
    region (for a BL-path, the single next path block); any other successor
    taken at runtime aborts the frame.
    """

    block: BasicBlock
    branch: CondBranch
    stay_targets: Tuple[BasicBlock, ...]
    position: int  # index into Frame.ops where the guard sits


@dataclass(eq=False)
class PsiOp:
    """A ψ (select) op replacing a multi-predecessor φ inside a braid."""

    phi: Phi
    predicate: Optional[Value]  # branch condition; None if not a simple diamond
    options: List[Tuple[BasicBlock, Value]]  # (incoming block, value)


@dataclass
class FrameOp:
    """One linearised frame operation."""

    kind: str  # "op" | "guard" | "psi" | "undo"
    inst: Optional[Instruction] = None
    guard: Optional[Guard] = None
    psi: Optional[PsiOp] = None

    @property
    def opcode(self) -> str:
        if self.kind == "op":
            return self.inst.opcode
        if self.kind == "psi":
            return "select"
        if self.kind == "undo":
            return "store"
        return "guard"


@dataclass
class Frame:
    """A software frame ready for accelerator mapping.

    A frame is its ops and its φ resolution; the live values are derived
    from them on first read, since the braid constituents priced only for
    their recurrence never read them.
    """

    region: Region
    ops: List[FrameOp]
    guards: List[Guard]
    psis: List[PsiOp]
    cancelled_phis: int
    store_count: int  # each store has one undo-log op
    #: mapping from original φ to its frame replacement (Value or PsiOp)
    phi_resolution: Dict[Phi, object] = field(default_factory=dict)
    #: CGRA schedules of this frame, keyed by
    #: :class:`~repro.sim.memo.SimulationMemo`; never compared
    memo_table: Dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @cached_property
    def live_ins(self) -> List[Value]:
        """Values the host hands the accelerator (see :func:`_frame_live_ins`)."""
        return _frame_live_ins(self.region, self.phi_resolution)

    @cached_property
    def live_outs(self) -> List[Value]:
        """In-region values the host reads after the frame (see
        :func:`_frame_live_outs`)."""
        return _frame_live_outs(self.region)

    # -- metrics -----------------------------------------------------------------

    @property
    def op_count(self) -> int:
        """All frame ops including guards, ψs and undo-log traffic."""
        return len(self.ops)

    @property
    def compute_op_count(self) -> int:
        return sum(1 for o in self.ops if o.kind in ("op", "psi"))

    @property
    def guard_count(self) -> int:
        return len(self.guards)

    @property
    def hoisted_op_count(self) -> int:
        """Operations positioned after the first guard — exactly the ops
        that speculation lets run before the guard outcome is known."""
        if not self.guards:
            return 0
        first = min(g.position for g in self.guards)
        return sum(
            1 for i, o in enumerate(self.ops) if i > first and o.kind != "guard"
        )

    def __repr__(self) -> str:
        return "<Frame %s: %d ops, %d guards, %d psis, %d live-in, %d live-out>" % (
            self.region.kind,
            self.op_count,
            self.guard_count,
            len(self.psis),
            len(self.live_ins),
            len(self.live_outs),
        )


class FrameBuildError(Exception):
    """The region cannot be framed (malformed path, cyclic braid...)."""


def path_incoming(phi: Phi, pred: Optional[BasicBlock]) -> Value:
    """The value a path φ takes: its incoming from the path predecessor
    ``pred``.  A path without one cannot be framed."""
    val = phi.incoming_for(pred) if pred is not None else None
    if val is None:
        raise FrameBuildError(
            "path φ %%%s in %s lacks an incoming value from %s"
            % (phi.name, phi.parent.name, pred.name if pred else "?")
        )
    return val


def build_frame(region: Region) -> Frame:
    """Lower an offload region into a software frame."""
    if not region.blocks:
        raise FrameBuildError("cannot frame an empty region")
    block_set = region.block_set
    is_path = region.kind in ("bl-path", "superblock", "expanded")
    order = list(region.blocks)

    # -- φ resolution ---------------------------------------------------------
    phi_resolution: Dict[Phi, object] = {}
    psis: List[PsiOp] = []
    cancelled = 0
    dom: Optional[DominatorTree] = None  # built for the first braid ψ

    prev_in_path: Dict[BasicBlock, Optional[BasicBlock]] = {}
    if is_path:
        prev_in_path[order[0]] = None
        for a, b in zip(order, order[1:]):
            prev_in_path[b] = a

    earlier: Set[BasicBlock] = set()  # the blocks before ``block``
    for block in order:
        for phi in block.phis:
            if block is region.entry:
                # entry φs are live-in parameters supplied by the host
                phi_resolution[phi] = "live-in"
                continue
            if is_path:
                phi_resolution[phi] = path_incoming(phi, prev_in_path.get(block))
                cancelled += 1
                continue
            # an incoming from this block or a later one arrives over a
            # back edge, which one invocation never takes
            in_region = [
                (blk, val) for blk, val in phi.incoming if blk in earlier
            ]
            if len(in_region) == 1:
                phi_resolution[phi] = in_region[0][1]
                cancelled += 1
            elif len(in_region) == 0:
                phi_resolution[phi] = "live-in"
            else:
                if dom is None:
                    dom = DominatorTree.compute(CFG(region.function))
                predicate = _diamond_predicate(block, in_region, dom, block_set)
                psi = PsiOp(phi=phi, predicate=predicate, options=in_region)
                phi_resolution[phi] = psi
                psis.append(psi)
        earlier.add(block)

    # -- linearise -------------------------------------------------------------------
    ops: List[FrameOp] = []
    guards: List[Guard] = []
    store_count = 0
    psis_emitted: Set[int] = set()

    for bi, block in enumerate(order):
        for phi in block.phis:
            res = phi_resolution.get(phi)
            if isinstance(res, PsiOp) and id(res) not in psis_emitted:
                psis_emitted.add(id(res))
                ops.append(FrameOp(kind="psi", psi=res))
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            if isinstance(inst, CondBranch):
                if block is order[-1]:
                    # The region's final branch picks where the host resumes;
                    # the frame has already completed, so it is not a guard.
                    continue
                if is_path:
                    nxt = order[bi + 1] if bi + 1 < len(order) else None
                    stay = tuple(s for s in inst.successors if s is nxt)
                else:
                    stay = tuple(s for s in inst.successors if s in block_set)
                if len(stay) == len(set(inst.successors)):
                    continue  # internal IF: handled by predication, not a guard
                guard = Guard(
                    block=block,
                    branch=inst,
                    stay_targets=stay,
                    position=len(ops),
                )
                guards.append(guard)
                ops.append(FrameOp(kind="guard", guard=guard))
                continue
            if isinstance(inst, (Branch, Ret)):
                continue
            ops.append(FrameOp(kind="op", inst=inst))
            if isinstance(inst, Store):
                store_count += 1
                # undo-log instrumentation: read the old value, log it
                ops.append(FrameOp(kind="undo", inst=inst))

    return Frame(
        region=region,
        ops=ops,
        guards=guards,
        psis=psis,
        cancelled_phis=cancelled,
        store_count=store_count,
        phi_resolution=phi_resolution,
    )


def _diamond_predicate(
    merge_block: BasicBlock,
    in_region,
    dom: DominatorTree,
    block_set,
) -> Optional[Value]:
    """Predicate controlling a 2-way merge: the conditional branch of the
    merge block's immediate dominator, when that branch is in-region."""
    if len(in_region) != 2:
        return None
    idom = dom.immediate_dominator(merge_block)
    if idom is None or idom not in block_set:
        return None
    term = idom.terminator
    if isinstance(term, CondBranch):
        return term.cond
    return None


def _frame_live_ins(region: Region, phi_resolution) -> List[Value]:
    """Values the host must hand the accelerator when invoking the frame.

    Entry-block φs count as one live-in each (their merged value); other
    live-ins are out-of-region SSA values and arguments used in-region.
    """
    block_set = region.block_set
    defined: Set[Value] = set()
    for b in region.blocks:
        for i in b.instructions:
            if not i.type.is_void:
                defined.add(i)

    live: List[Value] = []
    seen: Set[Value] = set()

    def note(v: Value) -> None:
        if isinstance(v, (Instruction, Argument)) and v not in defined and v not in seen:
            seen.add(v)
            live.append(v)

    for b in region.blocks:
        for inst in b.instructions:
            if isinstance(inst, Phi):
                res = phi_resolution.get(inst)
                if res == "live-in":
                    if inst not in seen:
                        seen.add(inst)
                        live.append(inst)
                continue
            for op in inst.operands:
                note(op)
    # φs resolved to values may reference out-of-region defs
    for phi, res in phi_resolution.items():
        if isinstance(res, Value):
            note(res)
        elif isinstance(res, PsiOp):
            for _, v in res.options:
                note(v)
    return live


def _frame_live_outs(region: Region) -> List[Value]:
    """In-region definitions the host needs after the frame completes.

    Two sources: (a) uses by instructions outside the region, and (b) values
    flowing into φs along the region's exit edges — including φs of blocks
    *inside* the region, which happens when a loop-iteration path exits over
    the back edge and the host re-enters through the header φs.
    """
    block_set = region.block_set
    defined: Set[Value] = set()
    for b in region.blocks:
        for i in b.instructions:
            if not i.type.is_void:
                defined.add(i)
    outs: List[Value] = []
    seen: Set[Value] = set()

    def note(v) -> None:
        if v in defined and v not in seen:
            seen.add(v)
            outs.append(v)

    for block in region.function.blocks:
        if block in block_set:
            continue
        for inst in block.instructions:
            operands = (
                [v for _, v in inst.incoming]
                if isinstance(inst, Phi)
                else inst.operands
            )
            for op in operands:
                note(op)
    # φ-incomings along exit edges (the host resumes through these φs)
    for src, dst in region.exit_edges():
        for phi in dst.phis:
            note(phi.incoming_for(src))
    # resume edges out of the final block: even a successor *inside* the
    # region (a back edge re-entering the header) is a host resume point
    if region.blocks:
        last = region.blocks[-1]
        for dst in last.successors:
            for phi in dst.phis:
                note(phi.incoming_for(last))
    return outs
