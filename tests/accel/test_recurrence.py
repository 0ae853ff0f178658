"""The latency-symbolic recurrence II against two oracles.

``reference_recurrence_ii`` is the scheduler's first recurrence
computation: for one load/store latency pair it walks the dependence
graph once per loop-carried φ with concrete latencies.
``sweep_recurrence_summary`` is the first latency-symbolic one: per
(φ, def) pair it sweeps every op from the φ's first consumer to the def,
after a full dependence build and a Kahn check.
``CGRAScheduler.recurrence_summary`` walks only each def's backward
slice, and ``recurrence_from_summary`` prices its chains; all three must
agree bit for bit under any latencies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.accel.cgra import (
    CGRAScheduler,
    _chase,
    _frontier,
    _op_chain,
    _operands,
    _require_acyclic,
)
from repro.frames import FrameBuildError, build_frame
from repro.frames.frame import PsiOp
from repro.interp import Interpreter
from repro.ir import Constant, I32, IRBuilder, Module, verify_function
from repro.ir.instructions import LATENCY, Load, Phi, Store
from repro.options import PipelineOptions
from repro.profiling import PathProfile
from repro.profiling.ranking import RankedPath, count_ops, rank_paths
from repro.regions import build_braids, path_to_region
from repro.sim import OffloadSimulator

from tests.strategies import (
    RandomFunctionBuilder,
    rich_values_strategy,
    shapes_strategy,
)

#: workloads whose braid frames and constituents the property test sweeps
#: (29 frames; freqmine's carries a two-chain frontier)
WORKLOADS = ("164.gzip", "179.art", "bodytrack", "freqmine")


def _reference_latency(scheduler: CGRAScheduler, fop) -> int:
    if fop.kind in ("guard", "psi"):
        return 1
    if fop.kind == "undo" or isinstance(fop.inst, Load):
        return max(1, int(round(scheduler.load_latency)))
    if isinstance(fop.inst, Store):
        return max(1, int(round(scheduler.store_latency)))
    return max(1, LATENCY[fop.inst.opcode])


def reference_recurrence_ii(scheduler: CGRAScheduler, frame, loop_carried) -> int:
    """Longest latency cycle through a single loop-carried φ.

    For each (entry φ, back-edge def) pair: the longest dependence path
    from an op consuming the φ to the op producing the def bounds how
    fast consecutive iterations can be initiated.
    """
    deps = reference_deps(frame)
    producer = {}
    for i, fop in enumerate(frame.ops):
        if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
            producer[fop.inst] = i
        elif fop.kind == "psi":
            producer[fop.psi.phi] = i

    worst = 1
    for phi, def_value in loop_carried:
        def_chased = _chase(frame, def_value)
        if isinstance(def_chased, PsiOp):
            def_chased = def_chased.phi
        def_idx = producer.get(def_chased)
        if def_idx is None:
            continue
        dist = [float("-inf")] * len(frame.ops)
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op" and fop.inst is not None:
                operands = fop.inst.operands
            elif fop.kind == "psi":
                operands = [v for _, v in fop.psi.options]
            elif fop.kind == "guard":
                operands = [fop.guard.branch.cond]
            else:
                operands = []
            consumes = any(_chase(frame, v) is phi for v in operands)
            lat = _reference_latency(scheduler, fop)
            base = lat if consumes else float("-inf")
            carried = max(
                (dist[j] for j in deps[i] if j < i), default=float("-inf")
            )
            if carried != float("-inf"):
                carried += lat
            dist[i] = max(base, carried)
        if dist[def_idx] != float("-inf"):
            worst = max(worst, int(dist[def_idx]))
    return worst


def reference_deps(frame):
    """The frame's dependence lists, built op by op: each operand chased
    through the φ resolution, then the store → undo-read and store-order
    edges.  ``CGRAScheduler._build_deps`` must return the same lists."""
    producer, psi_index = CGRAScheduler._producers(frame)

    def resolve(value):
        seen = 0
        while isinstance(value, Phi) and seen < 64:
            res = frame.phi_resolution.get(value)
            if isinstance(res, PsiOp):
                return psi_index.get(id(res))
            if res == "live-in" or res is None:
                return None
            value = res
            seen += 1
        return producer.get(value)

    deps = []
    for i, fop in enumerate(frame.ops):
        if fop.kind == "op":
            values = list(fop.inst.operands)
        elif fop.kind == "undo":
            values = [fop.inst.address]
        elif fop.kind == "guard":
            values = [fop.guard.branch.cond]
        else:
            values = [fop.psi.predicate] if fop.psi.predicate is not None else []
            values += [v for _, v in fop.psi.options]
        d = []
        for j in map(resolve, values):
            if j is not None and j != i and j not in d:
                d.append(j)
        deps.append(d)
    for i, fop in enumerate(frame.ops):
        if fop.kind == "undo" and i > 0:
            prev = frame.ops[i - 1]
            if prev.kind == "op" and isinstance(prev.inst, Store):
                deps[i - 1].append(i)
    last_store = None
    for i, fop in enumerate(frame.ops):
        if fop.kind == "op" and isinstance(fop.inst, Store):
            if last_store is not None and last_store not in deps[i]:
                deps[i].append(last_store)
            last_store = i
    return deps


def sweep_recurrence_summary(scheduler: CGRAScheduler, frame, loop_carried):
    """``recurrence_summary`` as one forward sweep per (φ, def) pair over
    every op from the φ's first consumer to the def."""
    deps = reference_deps(frame)
    _require_acyclic(deps)
    chains = [_op_chain(fop) for fop in frame.ops]
    producer = scheduler._producers(frame)[0]
    # φ -> indices of the ops reading it
    consumers = {}
    for i, fop in enumerate(frame.ops):
        for v in _operands(fop):
            value = _chase(frame, v)
            if isinstance(value, Phi):
                ops = consumers.setdefault(value, [])
                if not ops or ops[-1] != i:
                    ops.append(i)
    summary = []
    for phi, def_value in loop_carried:
        def_chased = _chase(frame, def_value)
        if isinstance(def_chased, PsiOp):
            def_chased = def_chased.phi
        def_idx = producer.get(def_chased)
        starts = consumers.get(phi)
        if def_idx is None or not starts or starts[0] > def_idx:
            continue
        # ops come in dependence order, so one forward sweep settles each
        # op before its users; a store's dependence on its later undo read
        # is not yet in ``longest`` when the store is reached
        longest = {}
        start_set = set(starts)
        for i in range(starts[0], def_idx + 1):
            reach = [t for j in deps[i] if j in longest for t in longest[j]]
            if i in start_set:
                reach.append((0, 0, 0))  # a chain starts at this op
            if reach:
                a, b, c = chains[i]
                longest[i] = tuple(
                    (x + a, y + b, z + c) for x, y, z in _frontier(reach)
                )
        summary.extend(longest.get(def_idx, ()))
    return _frontier(summary)


def _constituent_frame(profile, function, pid):
    blocks = profile.decode(pid)
    rp = RankedPath(path_id=pid, blocks=blocks, freq=profile.counts[pid],
                    ops=count_ops(blocks), weight=0, coverage=0.0)
    return build_frame(path_to_region(function, rp))


@pytest.fixture(scope="module")
def suite_frames():
    """(frame, loop-carried pairs, summary) of every braid constituent of
    ``WORKLOADS``, plus each braid frame itself."""
    pipe = PipelineOptions(no_cache=True).build_pipeline()
    out = []
    for name in WORKLOADS:
        analysis = pipe.analyse(workloads.get(name))
        braid = analysis.braid_frame
        profile = analysis.profiled.paths
        frames = [braid] + [
            _constituent_frame(profile, braid.region.function, pid)
            for pid in braid.region.source_paths
        ]
        for frame in frames:
            pairs = OffloadSimulator._loop_carried(frame)
            out.append(
                (frame, pairs, CGRAScheduler().recurrence_summary(frame, pairs))
            )
    return out


def test_suite_sample_has_a_multi_chain_frontier(suite_frames):
    assert len(suite_frames) == 29
    assert any(len(summary) >= 2 for _f, _p, summary in suite_frames)


@settings(max_examples=25, deadline=None)
@given(load=st.floats(1.0, 400.0), store=st.floats(1.0, 400.0))
def test_summary_matches_reference_on_suite_constituents(suite_frames, load, store):
    scheduler = CGRAScheduler(load_latency=load, store_latency=store)
    for frame, pairs, summary in suite_frames:
        expected = reference_recurrence_ii(scheduler, frame, pairs)
        assert scheduler.recurrence_from_summary(summary) == expected
        assert scheduler.schedule(frame, loop_carried=pairs).recurrence_ii == expected


def test_summary_matches_sweep_on_every_suite_braid():
    """Every braid frame of the 29 workloads and all 688 constituent
    paths that the braid effective-II prices."""
    pipe = PipelineOptions(no_cache=True).build_pipeline()
    scheduler = CGRAScheduler()
    constituents = 0
    for name in workloads.all_names():
        analysis = pipe.analyse(workloads.get(name))
        braid = analysis.braid_frame
        assert scheduler._build_deps(braid) == reference_deps(braid)
        pairs = OffloadSimulator._loop_carried(braid)
        summary = scheduler.recurrence_summary(braid, pairs)
        assert summary == sweep_recurrence_summary(scheduler, braid, pairs)
        # schedule() hands its own dependence lists to the same code
        assert scheduler.schedule(braid, loop_carried=pairs).recurrence_ii == (
            scheduler.recurrence_from_summary(summary)
        )
        source_paths = braid.region.source_paths
        if len(source_paths) < 2:
            continue
        profile = analysis.profiled.paths
        for pid in source_paths:
            frame = _constituent_frame(profile, braid.region.function, pid)
            pairs = OffloadSimulator._loop_carried(frame)
            assert scheduler.recurrence_summary(frame, pairs) == (
                sweep_recurrence_summary(scheduler, frame, pairs)
            ), (name, pid)
            constituents += 1
    assert constituents == 688


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    shapes=shapes_strategy,
    values=rich_values_strategy,
    runs=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                  min_size=1, max_size=3),
    load=st.integers(1, 60),
    store=st.integers(1, 60),
)
def test_summary_matches_oracles_on_random_functions(
    shapes, values, runs, load, store
):
    """Path and braid frames of random profiled functions: loop headers
    whose φs swap on the back edge, stores, guards on loaded data, ψs, and
    braids that hold their loop's back edge (one invocation never takes
    it, so their frames are acyclic too)."""
    m, fn = RandomFunctionBuilder(shapes, values, rich=True).build()
    interp = Interpreter(m, record=[fn])
    for a, b in runs:
        interp.run("f", [a, b])
    ranked = rank_paths(PathProfile.from_trace(interp.traces[fn]))
    regions = [path_to_region(fn, rp) for rp in ranked]
    regions += [braid.region for braid in build_braids(fn, ranked)]
    scheduler = CGRAScheduler(load_latency=load, store_latency=store)
    for region in regions:
        try:
            frame = build_frame(region)
        except FrameBuildError:
            continue
        assert scheduler._build_deps(frame) == reference_deps(frame)
        pairs = OffloadSimulator._loop_carried(frame)
        summary = scheduler.recurrence_summary(frame, pairs)
        assert summary == sweep_recurrence_summary(scheduler, frame, pairs)
        ii = reference_recurrence_ii(scheduler, frame, pairs)
        assert scheduler.recurrence_from_summary(summary) == ii
        assert scheduler.schedule(frame, loop_carried=pairs).recurrence_ii == ii


# -- a frontier of two chains ----------------------------------------------------


def _two_chain_loop():
    """``acc`` recurs through two chains that meet at ``acc.next``: a
    load-heavy one (two dependent loads) and a fixed-latency one (three
    dependent divides).  Which is longer depends on the load latency."""
    m = Module("two_chains")
    data = m.add_global("data", I32, 16, init=[(7 * k) % 16 for k in range(16)])
    fn = m.add_function("two_chains", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp("slt", i, fn.arg("n")), body, exit_)

    b.set_block(body)
    first = b.load(I32, b.gep(data, b.binop("and", acc, 15), 4))
    second = b.load(I32, b.gep(data, b.binop("and", first, 15), 4))
    quot = b.binop("sdiv", b.binop("sdiv", b.binop("sdiv", acc, 3), 3), 3)
    acc_next = b.add(second, quot)
    i_next = b.add(i, 1)
    b.br(header)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(body, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(body, acc_next)

    b.set_block(exit_)
    b.ret(acc)
    verify_function(fn)
    rp = RankedPath(path_id=0, blocks=[header, body], freq=1,
                    ops=count_ops([header, body]), weight=0, coverage=0.0)
    return build_frame(path_to_region(fn, rp))


def test_two_chain_frontier_keeps_both_and_matches_reference():
    frame = _two_chain_loop()
    pairs = OffloadSimulator._loop_carried(frame)
    summary = CGRAScheduler().recurrence_summary(frame, pairs)
    # and, gep, load, and, gep, load, add  vs  sdiv x3, add; the i chain
    # (one add) is dominated by both and pruned
    assert summary == ((0, 0, 37), (2, 0, 5))
    for load in (1, 4, 15, 16, 17, 40, 400):
        scheduler = CGRAScheduler(load_latency=load, store_latency=load)
        expected = reference_recurrence_ii(scheduler, frame, pairs)
        assert expected == max(37, 2 * load + 5)
        assert scheduler.recurrence_from_summary(summary) == expected
        assert scheduler.schedule(frame, loop_carried=pairs).recurrence_ii == expected


def test_chain_starts_at_a_reader_of_a_cancelled_phi():
    """``acc`` reaches its divide chain only through ``y``, a merge φ that
    the path frame cancels to ``acc``: the divides still start a chain."""
    m = Module("cancelled")
    fn = m.add_function("cancelled", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry, header, body, left, right, merge, exit_ = (
        b.add_block(name)
        for name in ("entry", "header", "body", "left", "right", "merge", "exit")
    )
    b.set_block(entry)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp("slt", i, fn.arg("n")), body, exit_)
    b.set_block(body)
    b.condbr(b.icmp("eq", b.binop("and", i, 1), 0), left, right)
    for arm in (left, right):
        b.set_block(arm)
        b.br(merge)
    b.set_block(merge)
    y = b.phi(I32, "y")
    y.add_incoming(left, acc)
    y.add_incoming(right, acc)
    acc_next = b.add(b.binop("sdiv", b.binop("sdiv", b.binop("sdiv", y, 3), 3), 3), 1)
    i_next = b.add(i, 1)
    b.br(header)
    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(merge, i_next)
    acc.add_incoming(entry, Constant(I32, 0))
    acc.add_incoming(merge, acc_next)
    b.set_block(exit_)
    b.ret(acc)
    verify_function(fn)
    blocks = [header, body, left, merge]
    rp = RankedPath(path_id=0, blocks=blocks, freq=1, ops=count_ops(blocks),
                    weight=0, coverage=0.0)
    frame = build_frame(path_to_region(fn, rp))
    pairs = OffloadSimulator._loop_carried(frame)
    scheduler = CGRAScheduler()
    summary = scheduler.recurrence_summary(frame, pairs)
    assert summary == ((0, 0, 37),)  # three divides and an add
    assert summary == sweep_recurrence_summary(scheduler, frame, pairs)
    assert scheduler.recurrence_from_summary(summary) == (
        reference_recurrence_ii(scheduler, frame, pairs)
    )


def test_frontier_pruning_keeps_only_undominated_chains():
    # stores never feed a value, so no frame chain carries a store term;
    # the pruning and pricing are exercised on triples directly
    load_heavy, store_heavy, fixed = (3, 0, 2), (0, 4, 1), (0, 0, 9)
    chains = [load_heavy, (1, 0, 2), store_heavy, (0, 2, 1), fixed, (0, 0, 3),
              load_heavy]
    assert _frontier(chains) == (fixed, store_heavy, load_heavy)
    assert _frontier([]) == ()
    for load, store in ((1, 1), (2, 1), (1, 3), (50, 2), (2, 50)):
        scheduler = CGRAScheduler(load_latency=load, store_latency=store)
        full = max(a * load + b * store + c for a, b, c in chains)
        assert scheduler.recurrence_from_summary(_frontier(chains)) == full
    assert CGRAScheduler().recurrence_from_summary(()) == 1


def _frame_insts(frame):
    return [f.inst for f in frame.ops if f.kind == "op"]


def test_cyclic_dependence_graph_raises_like_schedule():
    frame = _two_chain_loop()
    pairs = OffloadSimulator._loop_carried(frame)
    insts = _frame_insts(frame)
    producer, user = next(
        (p, u) for p in insts for u in insts if any(v is p for v in u.operands)
    )
    producer.operands[0] = user  # the producer now reads its own user
    scheduler = CGRAScheduler()
    with pytest.raises(RuntimeError, match="cyclic"):
        scheduler.schedule(frame, loop_carried=pairs)
    with pytest.raises(RuntimeError, match="cyclic"):
        scheduler.recurrence_summary(frame, pairs)


def test_acyclic_read_of_a_later_op_keeps_its_summary():
    frame = _two_chain_loop()
    pairs = OffloadSimulator._loop_carried(frame)
    insts = _frame_insts(frame)
    # the loop test `i < n` now reads `i + 1`, the frame's last op, which
    # does not read it: acyclic, but not in frame order
    insts[0].operands[1] = insts[-1]
    deps = reference_deps(frame)
    assert any(j > i for i, d in enumerate(deps) for j in d)
    for load in (1, 20, 400):
        scheduler = CGRAScheduler(load_latency=load, store_latency=load)
        summary = scheduler.recurrence_summary(frame, pairs)
        assert summary == sweep_recurrence_summary(scheduler, frame, pairs)
        expected = reference_recurrence_ii(scheduler, frame, pairs)
        assert scheduler.recurrence_from_summary(summary) == expected
        assert scheduler.schedule(frame, loop_carried=pairs).recurrence_ii == expected
