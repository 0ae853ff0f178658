"""The latency-symbolic recurrence II against the per-φ longest-path DP.

``reference_recurrence_ii`` is the scheduler's former recurrence
computation, kept here as the oracle: for one load/store latency pair it
walks the dependence graph once per loop-carried φ with concrete
latencies.  ``CGRAScheduler.recurrence_summary`` computes the same
longest chains once with the latencies left symbolic, and
``recurrence_from_summary`` prices them; the two must agree bit for bit
under any latencies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.accel.cgra import CGRAScheduler, _frontier
from repro.frames import build_frame
from repro.frames.frame import PsiOp
from repro.ir import Constant, I32, IRBuilder, Module, verify_function
from repro.ir.instructions import LATENCY, Load, Store
from repro.options import PipelineOptions
from repro.profiling.ranking import RankedPath, count_ops
from repro.regions import path_to_region
from repro.sim import OffloadSimulator

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
    deps = scheduler._build_deps(frame)
    producer = {}
    for i, fop in enumerate(frame.ops):
        if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
            producer[fop.inst] = i
        elif fop.kind == "psi":
            producer[fop.psi.phi] = i

    worst = 1
    for phi, def_value in loop_carried:
        def_chased = scheduler._chase(frame, def_value)
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
            consumes = any(scheduler._chase(frame, v) is phi for v in operands)
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


def test_cyclic_dependence_graph_raises_like_schedule(monkeypatch):
    frame = _two_chain_loop()
    pairs = OffloadSimulator._loop_carried(frame)
    scheduler = CGRAScheduler()
    deps = scheduler._build_deps(frame)
    user = next(i for i, d in enumerate(deps) if d)
    deps[deps[user][0]].append(user)  # the producer now waits on its user
    monkeypatch.setattr(scheduler, "_build_deps", lambda _frame: deps)
    with pytest.raises(RuntimeError, match="cyclic"):
        scheduler.schedule(frame, loop_carried=pairs)
    with pytest.raises(RuntimeError, match="cyclic"):
        scheduler.recurrence_summary(frame, pairs)
