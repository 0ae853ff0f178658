"""CGRA fabric model and resource-constrained frame scheduling (§VI).

The fabric is the Table V 16×8 grid of general function units.  A frame maps
spatially: each frame op occupies one FU; frames larger than the fabric need
multiple configurations, each switch costing the 16-cycle reconfiguration
penalty.  Execution is dataflow: the schedule below is classic
resource-constrained list scheduling over the frame's *speculative*
dependence graph (loads hoist above stores; guards depend only on their
predicates and never block compute).  The Aladdin-style estimator
(:mod:`repro.accel.aladdin`) schedules the same graph with the same
:func:`list_schedule`, under per-class FU caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..frames.frame import Frame, FrameBuildError, FrameOp, PsiOp, path_incoming
from ..ir.block import BasicBlock
from ..ir.instructions import LATENCY, Instruction, Load, Phi, Store
from ..ir.values import Value
from ..sim.config import CGRAConfig


@dataclass
class ScheduleSummary:
    """One CGRA schedule of a frame: every scalar the offload simulator
    and the evaluation record read, and no IR reference."""

    cycles: int  # schedule makespan including intra-frame reconfigs
    n_configs: int  # how many fabric configurations the frame needs
    #: initiation interval for back-to-back invocations of the same frame
    #: (dataflow pipelining across loop iterations, §IV-A's motivation)
    initiation_interval: int
    resource_ii: int
    recurrence_ii: int
    total_ops: int
    int_ops: int
    fp_ops: int
    mem_ops: int
    guard_ops: int
    edges: int
    fu_utilization: float  # busy FU-cycles over available FU-cycles
    ilp: float


#: latency of one dependence chain as (loads, stores, fixed cycles): it
#: costs ``loads * L + stores * S + fixed`` under load/store latencies L, S
Chain = Tuple[int, int, int]


def _op_chain(fop: FrameOp) -> Chain:
    """One frame op's latency as a chain triple."""
    if fop.kind in ("guard", "psi"):
        return (0, 0, 1)
    if fop.kind == "undo":
        return (1, 0, 0)
    inst = fop.inst
    if isinstance(inst, Load):
        return (1, 0, 0)
    if isinstance(inst, Store):
        return (0, 1, 0)
    return (0, 0, max(1, LATENCY[inst.opcode]))


def _operands(fop: FrameOp) -> list:
    """The values a frame op reads on a recurrence chain."""
    if fop.kind == "op" and fop.inst is not None:
        return fop.inst.operands
    if fop.kind == "psi":
        return [v for _, v in fop.psi.options]
    if fop.kind == "guard":
        return [fop.guard.branch.cond]
    return []


def _chase(frame: Frame, value):
    """Follow ``value`` through the frame's φ resolution to where it ends:
    a non-φ value, a ψ, a live-in φ, or None for an unresolved φ."""
    seen = 0
    while isinstance(value, Phi) and seen < 64:
        res = frame.phi_resolution.get(value)
        if res == "live-in" or res is None or isinstance(res, PsiOp):
            return value if res == "live-in" else res
        value = res
        seen += 1
    return value


def _frontier(chains: List[Chain]) -> Tuple[Chain, ...]:
    """The chains no other chain dominates componentwise, ascending.

    Latencies are at least one cycle, so a dominated chain is never the
    longest under any latencies and dropping it is exact.
    """
    if len(chains) < 2:
        return tuple(chains)
    # in descending order a chain can only be dominated by an earlier one,
    # and by transitivity by an earlier one that was kept
    keep: List[Chain] = []
    for c in sorted(set(chains), reverse=True):
        if not any(
            k[0] >= c[0] and k[1] >= c[1] and k[2] >= c[2] for k in keep
        ):
            keep.append(c)
    return tuple(reversed(keep))


def _extend(fop: FrameOp, reach: List[Chain]) -> Tuple[Chain, ...]:
    """The per-op propagation: an op's chains are the frontier of the
    chains that reach it through what it reads, plus its own triple.  A
    chain starts at an op that reads its source as ``(0, 0, 0)``."""
    a, b, c = _op_chain(fop)
    return tuple((x + a, y + b, z + c) for x, y, z in _frontier(reach))


#: one value's chains, keyed by the value each chain starts from
Chains = Dict[Value, Tuple[Chain, ...]]


def _require_acyclic(deps: List[List[int]]) -> None:
    """Raise ``RuntimeError`` if the dependence graph has a cycle."""
    waiting = [len(d) for d in deps]
    users: List[List[int]] = [[] for _ in deps]
    for i, d in enumerate(deps):
        for j in d:
            users[j].append(i)
    ready = [i for i, n in enumerate(waiting) if n == 0]
    done = 0
    while ready:
        j = ready.pop()
        done += 1
        for i in users[j]:
            waiting[i] -= 1
            if waiting[i] == 0:
                ready.append(i)
    if done != len(deps):
        raise RuntimeError("cyclic frame dependence graph")


def list_schedule(
    deps: List[List[int]],
    latencies: List[int],
    uses: List[Sequence[str]],
    caps: Dict[str, int],
) -> Tuple[List[int], List[int], List[int]]:
    """Resource-constrained list scheduling: ``(start, finish, order)``.

    Sweeps the ops in index order, repeating the sweep until every op is
    placed: ``deps`` may point forward (a store waits on its undo read,
    the next op).  An op whose dependences are all placed goes at the
    first cycle, counting from its operands' finish, where every resource
    in ``uses[i]`` is below its cap in ``caps``; it finishes
    ``latencies[i]`` cycles later.  ``order`` lists the op indices in
    placement order.  A sweep that places nothing means a dependence
    cycle and raises ``RuntimeError``.
    """
    n = len(deps)
    start = [0] * n
    finish = [0] * n
    placed = [False] * n
    order: List[int] = []
    used: Dict[str, Dict[int, int]] = {r: {} for r in caps}
    while len(order) < n:
        progressed = False
        for i in range(n):
            if placed[i] or any(not placed[j] for j in deps[i]):
                continue
            cycle = max((finish[j] for j in deps[i]), default=0)
            slots = [(used[r], caps[r]) for r in uses[i]]
            while True:  # until every resource has room at ``cycle``
                for count, cap in slots:
                    if count.get(cycle, 0) >= cap:
                        cycle += 1
                        break
                else:
                    break
            for count, _cap in slots:
                count[cycle] = count.get(cycle, 0) + 1
            start[i] = cycle
            finish[i] = cycle + latencies[i]
            placed[i] = True
            order.append(i)
            progressed = True
        if not progressed:
            raise RuntimeError("cyclic frame dependence graph")
    return start, finish, order


class CGRAScheduler:
    """Maps frames onto the CGRA with list scheduling."""

    def __init__(
        self,
        config: Optional[CGRAConfig] = None,
        load_latency: float = 20.0,
        store_latency: float = 4.0,
    ):
        self.config = config or CGRAConfig()
        #: effective memory latencies (L2-level; refine via cache profiling)
        self.load_latency = load_latency
        self.store_latency = store_latency

    # -- dependence graph over frame ops ------------------------------------------

    @staticmethod
    def _producers(frame: Frame) -> Tuple[Dict[object, int], Dict[int, int]]:
        """(value -> producing op index, id(ψ) -> ψ op index)."""
        producer: Dict[object, int] = {}
        psi_index: Dict[int, int] = {}
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
                producer[fop.inst] = i
            elif fop.kind == "psi":
                psi_index[id(fop.psi)] = i
                producer[fop.psi.phi] = i
        return producer, psi_index

    @staticmethod
    def _value_deps(
        frame: Frame, producer: Dict[object, int], psi_index: Dict[int, int]
    ) -> Tuple[List[List[int]], bool]:
        """Per-op lists of the ops producing what each op reads (indices
        into frame.ops), and whether every one of them is an earlier op.

        Values are resolved through the frame's φ-resolution map, so a use
        of a cancelled φ depends on the op producing the replacement value;
        ψ ops depend on their predicate and both options; an undo-log read
        depends on its store's address.  Only instructions can be
        producers, so constant operands are never looked up.
        """
        # each resolved φ maps, once, to the op producing its value
        index = dict(producer)
        for phi in frame.phi_resolution:
            end = _chase(frame, phi)
            if isinstance(end, PsiOp):
                index[phi] = psi_index.get(id(end))
            elif isinstance(end, Instruction):
                index[phi] = producer.get(end)
            else:
                index[phi] = None
        deps: List[List[int]] = []
        backward = True
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op":
                values = fop.inst.operands
            elif fop.kind == "undo":
                # undo reads the old value at the store's address
                values = (fop.inst.address,)
            elif fop.kind == "guard":
                values = (fop.guard.branch.cond,)
            else:  # psi
                values = [v for _, v in fop.psi.options]
                if fop.psi.predicate is not None:
                    values.insert(0, fop.psi.predicate)
            d: List[int] = []
            for value in values:
                j = index.get(value) if isinstance(value, Instruction) else None
                if j is not None and j != i and j not in d:
                    d.append(j)
                    if j > i:
                        backward = False
            deps.append(d)
        return deps, backward

    def _build_deps(self, frame: Frame) -> List[List[int]]:
        """Per-op dependence lists (indices into frame.ops): the value
        dependences of :meth:`_value_deps` plus the memory ordering — a
        store waits on its undo-log read, which must see the old value,
        and stores commit in order (the undo log replays in order)."""
        deps = self._value_deps(frame, *self._producers(frame))[0]
        for i, fop in enumerate(frame.ops):
            if fop.kind == "undo" and i > 0:
                prev = frame.ops[i - 1]
                if prev.kind == "op" and isinstance(prev.inst, Store):
                    deps[i - 1].append(i)  # store depends on undo read
        last_store: Optional[int] = None
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op" and isinstance(fop.inst, Store):
                if last_store is not None and last_store not in deps[i]:
                    deps[i].append(last_store)
                last_store = i
        return deps

    def _rounded_latencies(self) -> Tuple[int, int]:
        """(load, store) latency in whole cycles, at least one each."""
        return (
            max(1, int(round(self.load_latency))),
            max(1, int(round(self.store_latency))),
        )

    def _latencies(self, frame: Frame) -> List[int]:
        """Each frame op's latency in whole cycles."""
        load_cycles, store_cycles = self._rounded_latencies()
        return [
            loads * load_cycles + stores * store_cycles + fixed
            for loads, stores, fixed in map(_op_chain, frame.ops)
        ]

    # -- loop-carried recurrence ---------------------------------------------------

    def recurrence_summary(
        self,
        frame: Frame,
        loop_carried: List[Tuple[Value, Value]],
        deps: Optional[List[List[int]]] = None,
    ) -> Tuple[Chain, ...]:
        """Latency-symbolic form of the recurrence II.

        For each (entry φ, back-edge def) pair, the dependence chains from
        an op consuming the φ to the op producing the def bound how fast
        consecutive iterations can be initiated.  Each chain's latency is
        kept as a ``(loads, stores, fixed)`` triple — undo reads count as
        loads, guards and ψ ops as one fixed cycle — and only the triples
        no other triple dominates survive, so the result depends on the
        frame alone and :meth:`recurrence_from_summary` prices it under
        any load/store latency.  Each op's chains come from the per-op
        propagation (:func:`_extend`) that the braid constituents' block
        summaries apply too (:func:`block_summary`).

        ``deps`` are :meth:`schedule`'s dependence lists, already proven
        acyclic by placing every op.  Without them the frame's value
        dependences are built here, and a cyclic dependence graph raises
        ``RuntimeError`` as :meth:`schedule` does.
        """
        producer, psi_index = self._producers(frame)
        if deps is None:
            deps, backward = self._value_deps(frame, producer, psi_index)
            if not backward:
                # an op reads a later one: only the full graph can say
                # whether that closes a cycle
                _require_acyclic(self._build_deps(frame))
        ops = frame.ops
        summary: List[Chain] = []
        for phi, def_value in loop_carried:
            def_chased = _chase(frame, def_value)
            if isinstance(def_chased, PsiOp):
                def_chased = def_chased.phi
            if not isinstance(def_chased, Instruction):
                continue  # a constant or argument def closes no chain
            def_idx = producer.get(def_chased)
            if def_idx is None:
                continue
            # Stores, undo reads and guards produce no value, so a chain
            # to the def runs through its backward slice alone: the ops it
            # reaches over dependences on earlier ops.
            in_slice = {def_idx}
            stack = [def_idx]
            while stack:
                i = stack.pop()
                for j in deps[i]:
                    if j < i and j not in in_slice:
                        in_slice.add(j)
                        stack.append(j)
            # an op consumes the φ when it reads the φ itself or a
            # cancelled φ that resolves to it; operands are compared by
            # identity, so none is hashed
            aliases = {
                id(v) for v in frame.phi_resolution
                if _chase(frame, v) is phi
            }
            # longest chains from a consumer of the φ to each reached op;
            # in ascending order every earlier dependence is settled first
            longest: Dict[int, Tuple[Chain, ...]] = {}
            for i in sorted(in_slice):
                fop = ops[i]
                reach = [t for j in deps[i] if j in longest for t in longest[j]]
                if not aliases.isdisjoint(map(id, _operands(fop))):
                    reach.append((0, 0, 0))  # a chain starts at this op
                if reach:
                    longest[i] = _extend(fop, reach)
            summary.extend(longest.get(def_idx, ()))
        return _frontier(summary)

    def recurrence_from_summary(self, summary: Tuple[Chain, ...]) -> int:
        """The recurrence II of a :meth:`recurrence_summary` under this
        scheduler's load/store latencies (at least 1)."""
        load_cycles, store_cycles = self._rounded_latencies()
        return max(
            [1] + [a * load_cycles + b * store_cycles + c for a, b, c in summary]
        )

    # -- scheduling ------------------------------------------------------------------

    def schedule(
        self,
        frame: Frame,
        loop_carried: Optional[List[Tuple[Value, Value]]] = None,
    ) -> ScheduleSummary:
        """List-schedule ``frame`` onto the fabric.

        ``loop_carried`` pairs (entry φ, back-edge definition) enable the
        recurrence-II computation for pipelined back-to-back invocations.
        """
        cfg = self.config
        deps = self._build_deps(frame)
        n = len(frame.ops)
        n_configs = max(1, math.ceil(n / cfg.fu_count))
        issue_cap = min(cfg.fu_count, cfg.issue_width)
        is_mem = [
            fop.kind == "undo"
            or (fop.kind == "op" and fop.inst is not None and fop.inst.is_memory)
            for fop in frame.ops
        ]
        latencies = self._latencies(frame)
        _start, finish, _order = list_schedule(
            deps,
            latencies,
            [("fu", "mem") if m else ("fu",) for m in is_mem],
            {"fu": issue_cap, "mem": cfg.memory_ports},
        )
        int_ops = fp_ops = mem_ops = guard_ops = 0
        for fop, mem in zip(frame.ops, is_mem):
            if fop.kind == "guard":
                guard_ops += 1
            elif mem:
                mem_ops += 1
            elif fop.kind == "psi":
                int_ops += 1
            elif fop.inst is not None and fop.inst.is_float:
                fp_ops += 1
            else:
                int_ops += 1

        # time-multiplexing over multiple fabric configurations
        cycles = max(finish, default=0) + (n_configs - 1) * cfg.reconfig_cycles

        # -- initiation interval for pipelined back-to-back invocations ------
        resource_ii = max(
            1, math.ceil(n / issue_cap), math.ceil(mem_ops / cfg.memory_ports)
        )
        recurrence_ii = self.recurrence_from_summary(
            self.recurrence_summary(frame, loop_carried or [], deps)
        )
        return ScheduleSummary(
            cycles=cycles,
            n_configs=n_configs,
            # Frames larger than the fabric are modulo-scheduled: each FU
            # rotates through ceil(ops/fu_count) operations per iteration,
            # which is exactly what resource_ii already charges.
            initiation_interval=max(resource_ii, recurrence_ii),
            resource_ii=resource_ii,
            recurrence_ii=recurrence_ii,
            total_ops=n,
            int_ops=int_ops,
            fp_ops=fp_ops,
            mem_ops=mem_ops,
            guard_ops=guard_ops,
            edges=sum(len(d) for d in deps),
            # an op keeps its FU busy for its whole latency
            fu_utilization=(
                sum(latencies) / (cycles * cfg.fu_count) if cycles else 0.0
            ),
            ilp=n / cycles if cycles else 0.0,
        )


# -- braid constituents ------------------------------------------------------------


def block_summary(frame: Frame) -> Dict[Instruction, Chains]:
    """The chains through one block, from the frame of its one-block path.

    For each value the block defines, the chains to it from each value it
    reads from elsewhere (one of its φs, or a value of another block),
    keyed by that value.  A constituent path's frame holds the ops of
    each of its blocks' frames, so composing these summaries along the
    path gives its frame's chains.
    """
    defined = {id(fop.inst) for fop in frame.ops if fop.kind == "op"}
    out: Dict[Instruction, Chains] = {}
    for fop in frame.ops:
        if fop.kind != "op" or fop.inst.type.is_void:
            continue  # stores and undo reads produce no value
        reach: Dict[Value, List[Chain]] = {}
        for v in _operands(fop):
            if not isinstance(v, Instruction):
                continue
            if id(v) not in defined:
                reach.setdefault(v, []).append((0, 0, 0))
            else:
                for source, chains in out.get(v, {}).items():
                    reach.setdefault(source, []).extend(chains)
        if reach:
            out[fop.inst] = {
                source: _extend(fop, chains) for source, chains in reach.items()
            }
    return out


class _Prefix:
    """A node of the constituents' prefix trie: one block of a path."""

    __slots__ = ("children", "through", "ends")

    def __init__(self):
        self.children: Dict[BasicBlock, "_Prefix"] = {}
        self.through: List[int] = []  # path ids whose prefix this is
        self.ends: List[int] = []  # path ids that end here


def constituent_summaries(
    paths: Dict[int, List[BasicBlock]],
    block_frames: Dict[BasicBlock, object],
) -> Dict[int, object]:
    """The :meth:`CGRAScheduler.recurrence_summary` of each path's frame,
    without building it: ``block_frames`` holds each path block's
    one-block frame, or the exception that stopped its lowering.

    The block summaries compose along each path as its frame would be
    built: a block's φs resolve to their incoming from the path
    predecessor, the φs of the path's first block read as the chain
    ``(0, 0, 0)`` of their own, and each loop-carried def reads its
    chains from the φ it feeds.  Paths that share a prefix share its
    state.  A path maps to its summary, or to the exception its frame
    build would have raised (a φ without an incoming from the path
    predecessor) or that lowering one of its blocks raised.
    """
    # only values another block reads (a φ incoming or an operand) leave
    # their block; a path's blocks are all among ``block_frames``
    read_elsewhere = set()
    for block in block_frames:
        for inst in block.instructions:
            phi = isinstance(inst, Phi)
            for v in inst.operands:
                if isinstance(v, Instruction) and (phi or v.parent is not block):
                    read_elsewhere.add(v)
    summaries: Dict[BasicBlock, object] = {}
    for block, frame in block_frames.items():
        if isinstance(frame, Exception):
            summaries[block] = frame
        else:
            summaries[block] = {
                d: per_input for d, per_input in block_summary(frame).items()
                if d in read_elsewhere
            }

    root = _Prefix()
    for pid, blocks in paths.items():
        node = root
        for block in blocks:
            child = node.children.get(block)
            if child is None:
                child = node.children[block] = _Prefix()
            node = child
            node.through.append(pid)
        node.ends.append(pid)

    results: Dict[int, object] = {}
    state: Dict[Value, Chains] = {}  # value -> its chains per start φ
    alias: Dict[Phi, Value] = {}  # φ -> the value it resolves to

    def resolve(v):
        return alias.get(v, v) if isinstance(v, Phi) else v

    def visit(node: _Prefix, block: BasicBlock, pred, first) -> None:
        summary = summaries[block]
        if isinstance(summary, Exception):
            for pid in node.through:
                results[pid] = summary
            return
        added: List[Value] = []
        resolved: List[Phi] = []
        error = None
        if pred is None:
            first = block
            for phi in block.phis:
                state[phi] = {phi: ((0, 0, 0),)}
                added.append(phi)
        else:
            try:
                for phi in block.phis:
                    v = path_incoming(phi, pred)
                    # a constant or argument resolves to None: no chains
                    alias[phi] = (
                        resolve(v) if isinstance(v, Instruction) else None
                    )
                    resolved.append(phi)
            except FrameBuildError as exc:
                error = exc
        if error is not None:
            for pid in node.through:
                results[pid] = error
        else:
            for d, per_input in summary.items():
                acc: Dict[object, List[Chain]] = {}
                for u, ts in per_input.items():
                    for source, cs in state.get(resolve(u), {}).items():
                        acc.setdefault(source, []).extend(
                            (x + a, y + b, z + c)
                            for x, y, z in cs for a, b, c in ts
                        )
                if acc:
                    state[d] = {src: _frontier(cs) for src, cs in acc.items()}
                    added.append(d)
            for pid in node.ends:
                # the (φ, back-edge def) pairs OffloadSimulator._loop_carried
                # takes for the path's frame
                chains: List[Chain] = []
                for phi in first.phis:
                    end = resolve(phi.incoming_for(block))
                    if isinstance(end, Instruction) and not isinstance(end, Phi):
                        chains.extend(state.get(end, {}).get(phi, ()))
                results[pid] = _frontier(chains)
            for child_block, child in node.children.items():
                visit(child, child_block, block, first)
        for v in added:
            del state[v]
        for phi in resolved:
            del alias[phi]

    for block, node in root.children.items():
        visit(node, block, None, None)
    return results
