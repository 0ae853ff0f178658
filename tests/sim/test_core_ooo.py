from repro.ir import I32, F64, IRBuilder, Module, verify_function
from repro.sim import HostConfig, MemorySystem, OOOModel

from tests.conftest import record_function


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


def test_memory_stream_latencies(array_sum):
    m, fn = array_sum
    trace = _trace_of(m, fn, [16])
    ms = MemorySystem()
    with_mem = OOOModel(memory_system=ms).simulate(
        trace.blocks, memory_stream=trace.memory
    )
    without = OOOModel().simulate(trace.blocks)
    # cold DRAM misses make the memory-accurate run slower
    assert with_mem.cycles > without.cycles
    assert with_mem.loads == 16
    assert with_mem.dram_accesses >= 1


def test_perfect_disambiguation_load_waits_for_same_addr_store():
    m = Module()
    g = m.add_global("buf", I32, 16)
    fn = m.add_function("st_ld", [("v", I32)], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    a0 = b.gep(g, 0, 4)
    b.store(fn.arg("v"), a0)
    ld = b.load(I32, a0)
    b.ret(ld)
    verify_function(fn)
    trace = _trace_of(m, fn, [5])
    res = OOOModel().simulate(trace.blocks, memory_stream=trace.memory)
    # load must wait for the store: cycles reflect the serialisation
    assert res.cycles >= 3


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
