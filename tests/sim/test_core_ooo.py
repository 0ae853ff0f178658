import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.ir import I32, F64, IRBuilder, Module, verify_function
from repro.sim import HostConfig, OffloadSimulator, OOOModel
from repro.workloads.base import profile_workload

from tests.conftest import record_function
from tests.sim.reference_ooo import ReferenceOOOModel
from tests.strategies import (
    RandomFunctionBuilder,
    rich_values_strategy,
    shapes_strategy,
)

#: the reduced host of the benchmark's Table V grid (2-wide, 48-entry ROB)
NARROW_HOST = HostConfig(
    fetch_width=2, issue_width=2, retire_width=2, rob_entries=48,
    int_alus=3, fp_units=1,
)


def _trace_of(m, fn, args):
    return record_function(m, fn, [args])


def _chain_module(n_ops=32, dependent=True):
    """n adds either chained (ILP=1) or independent (ILP=width)."""
    m = Module()
    fn = m.add_function("chain", [("a", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    vals = []
    cur = fn.arg("a")
    for i in range(n_ops):
        if dependent:
            cur = b.add(cur, 1)
        else:
            vals.append(b.add(fn.arg("a"), i))
    b.ret(cur if dependent else vals[-1])
    verify_function(fn)
    return m, fn


def test_dependent_chain_is_serial():
    m, fn = _chain_module(64, dependent=True)
    trace = _trace_of(m, fn, [0])
    res = OOOModel().simulate(trace.blocks)
    # a 64-deep add chain takes at least 64 cycles
    assert res.cycles >= 64
    assert res.ipc <= 1.5


def test_independent_ops_reach_issue_width():
    m, fn = _chain_module(256, dependent=False)
    trace = _trace_of(m, fn, [0])
    res = OOOModel().simulate(trace.blocks)
    # 4-wide fetch bounds IPC at 4; parallel adds should get close
    assert res.ipc > 2.5
    assert res.ipc <= 4.0 + 1e-9


def test_fpu_constraint_limits_fp_throughput():
    m = Module()
    fn = m.add_function("fp", [("x", F64)], F64)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    vals = [b.fmul(fn.arg("x"), float(i)) for i in range(64)]
    b.ret(vals[-1])
    verify_function(fn)
    trace = _trace_of(m, fn, [1.0])
    res = OOOModel().simulate(trace.blocks)
    # 2 FPUs: 64 independent fmuls need >= 32 issue cycles
    assert res.cycles >= 32
    assert res.fp_ops == 64


def test_rob_bounds_lookahead():
    # far-apart independent work cannot overlap beyond the ROB window:
    # a long dependent chain followed by independent ops
    m = Module()
    fn = m.add_function("mix", [("a", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    cur = fn.arg("a")
    for _ in range(200):
        cur = b.add(cur, 1)
    tail = [b.add(fn.arg("a"), i) for i in range(200)]
    y = b.add(cur, tail[-1])
    b.ret(y)
    verify_function(fn)
    trace = _trace_of(m, fn, [0])
    small = OOOModel(HostConfig(rob_entries=16)).simulate(trace.blocks)
    big = OOOModel(HostConfig(rob_entries=4096)).simulate(trace.blocks)
    assert big.cycles <= small.cycles


def test_loop_trace_counts(counted_loop):
    m, fn = counted_loop
    trace = _trace_of(m, fn, [10])
    res = OOOModel().simulate(trace.blocks)
    assert res.instructions == trace.dynamic_instructions - res.phis
    assert res.branches > 0
    assert res.cycles > 0


def _store_then_load(load_index):
    m = Module()
    g = m.add_global("buf", I32, 16)
    fn = m.add_function("st_ld", [("v", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    b.store(fn.arg("v"), b.gep(g, 0, 4))
    ld = b.load(I32, b.gep(g, load_index, 4))
    b.ret(ld)
    verify_function(fn)
    return _trace_of(m, fn, [5])


def test_load_never_waits_on_a_store_to_the_same_address():
    # the block trace carries no addresses: a load after a store to the
    # same word costs what a load after a store elsewhere costs
    same = OOOModel().simulate(_store_then_load(0).blocks)
    other = OOOModel().simulate(_store_then_load(1).blocks)
    assert same.loads == other.loads == 1
    assert same.stores == other.stores == 1
    assert same.cycles == other.cycles


def test_store_takes_one_cycle():
    m = Module()
    g = m.add_global("buf", I32, 4)
    fn = m.add_function("st", [("v", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    b.store(fn.arg("v"), b.gep(g, 0, 4))
    b.ret(fn.arg("v"))
    verify_function(fn)
    res = OOOModel().simulate(_trace_of(m, fn, [5]).blocks)
    # gep done at 1, the store one cycle later; ret retires with it
    assert res.cycles == 2


def test_empty_trace():
    res = OOOModel().simulate([])
    assert res.cycles == 0 and res.instructions == 0
    assert res.ipc == 0.0


def test_merge_results(counted_loop):
    m, fn = counted_loop
    trace = _trace_of(m, fn, [10])
    res = OOOModel().simulate(trace.blocks)
    merged = res.merge(res)
    assert merged.cycles == 2 * res.cycles
    assert merged.instructions == 2 * res.instructions


# -- the walk against the reference walk ------------------------------------


@pytest.mark.parametrize("host", ["default", "narrow"])
def test_walk_matches_reference_on_every_suite_path(host):
    """All 849 profiled paths of the suite, once and four times
    back-to-back, at each workload's calibrated load latency."""
    config = NARROW_HOST if host == "narrow" else HostConfig()
    sim = OffloadSimulator()
    walks = 0
    for name in workloads.all_names():
        profiled = profile_workload(workloads.get(name))
        calibrated = sim.calibrate(profiled.trace).host_load_latency
        latency = max(1, int(round(calibrated)))
        model = OOOModel(config, fixed_load_latency=latency)
        reference = ReferenceOOOModel(config, fixed_load_latency=latency)
        for pid in profiled.paths.counts:
            blocks = profiled.paths.decode(pid)
            for reps in (1, 4):
                trace = list(blocks) * reps
                assert vars(model.simulate(trace)) == vars(reference.simulate(trace))
            walks += 1
    assert walks == 849


def _random_walk(fn, steps):
    """Blocks along ``fn``'s CFG edges, each step picking a successor;
    a step of 7, or a block without successors, ends the invocation."""
    trace = []
    block = fn.entry
    for step in steps:
        trace.append(block)
        successors = block.successors
        if step == 7 or not successors:
            trace.append(None)
            block = fn.entry
        else:
            block = successors[step % len(successors)]
    return trace


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    shapes=shapes_strategy,
    values=rich_values_strategy,
    steps=st.lists(st.integers(0, 7), min_size=1, max_size=80),
    load_latency=st.integers(1, 40),
    rob=st.integers(2, 8),
    fetch=st.integers(1, 4),
    retire=st.integers(1, 4),
)
def test_walk_matches_reference_on_random_walks(
    shapes, values, steps, load_latency, rob, fetch, retire
):
    """Tiny hosts (one ALU, one FPU, a 2–8 entry ROB) make every walk
    stall on the ROB and contend for the units."""
    _m, fn = RandomFunctionBuilder(shapes, values, rich=True).build()
    config = HostConfig(fetch_width=fetch, retire_width=retire,
                        rob_entries=rob, int_alus=1, fp_units=1)
    trace = _random_walk(fn, steps)
    got = OOOModel(config, fixed_load_latency=load_latency).simulate(trace)
    want = ReferenceOOOModel(config, fixed_load_latency=load_latency).simulate(trace)
    assert vars(got) == vars(want)
