"""Property tests: the set-associative cache against a reference LRU model,
dual-port calibration against per-port replays, and OOO-model resource
monotonicity."""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.sim import (
    Cache,
    CacheConfig,
    HostConfig,
    MemoryHierarchyConfig,
    MemorySystem,
    OOOModel,
    profile_stream_dual,
)
from repro.sim import cache as cache_module
from repro.workloads.base import profile_workload


class _ReferenceLRU:
    """Oracle: per-set ordered dicts with explicit LRU handling."""

    def __init__(self, sets: int, assoc: int, line: int):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.n_sets = sets
        self.assoc = assoc
        self.line = line

    def access(self, addr: int) -> bool:
        line = addr // self.line
        s = self.sets[line % self.n_sets]
        tag = line // self.n_sets
        if tag in s:
            s.move_to_end(tag)
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[tag] = True
        return False


@settings(max_examples=60, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 4095), min_size=1, max_size=300),
    sets=st.sampled_from([1, 2, 4, 8]),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_cache_matches_reference_lru(addrs, sets, assoc):
    line = 64
    cache = Cache(CacheConfig(size_bytes=sets * assoc * line, associativity=assoc, line_bytes=line))
    ref = _ReferenceLRU(sets, assoc, line)
    for addr in addrs:
        assert cache.access(addr, False) == ref.access(addr), hex(addr)


@st.composite
def hierarchies(draw):
    """Valid hierarchies; line sizes equal or not, small enough that
    short streams can overflow a set."""
    l1_line = draw(st.sampled_from([16, 32, 64]))
    same_line = draw(st.booleans())
    l2_line = l1_line if same_line else draw(st.sampled_from([16, 32, 64]))
    l1_sets = draw(st.sampled_from([1, 2, 4, 8]))
    l1_ways = draw(st.sampled_from([1, 2, 4]))
    banks = draw(st.sampled_from([1, 2, 4, 8]))
    bank_sets = draw(st.sampled_from([1, 2, 4]))
    l2_ways = draw(st.sampled_from([1, 2, 4, 8]))
    return MemoryHierarchyConfig(
        l1=CacheConfig(size_bytes=l1_sets * l1_ways * l1_line,
                       associativity=l1_ways, line_bytes=l1_line,
                       latency=draw(st.integers(1, 4))),
        l2=CacheConfig(size_bytes=banks * bank_sets * l2_ways * l2_line,
                       associativity=l2_ways, line_bytes=l2_line,
                       latency=draw(st.integers(5, 30))),
        l2_banks=banks,
        dram_latency=draw(st.integers(40, 200)),
    )


@st.composite
def memory_streams(draw):
    """(opcode, address) streams revisiting a working set drawn from a
    small or a wide address span, so some stay within every set's
    associativity and others overflow it."""
    span = draw(st.sampled_from([64, 512, 4096, 1 << 16]))
    working_set = draw(st.lists(st.integers(0, span - 1),
                                min_size=1, max_size=24))
    length = draw(st.integers(0, 200))
    return draw(st.lists(
        st.tuples(st.sampled_from(["load", "store"]),
                  st.sampled_from(working_set)),
        min_size=length, max_size=length,
    ))


@settings(max_examples=200, deadline=None)
@given(hier=hierarchies(), stream=memory_streams())
def test_dual_profile_matches_per_port_replays(hier, stream):
    assert profile_stream_dual(hier, stream) == (
        MemorySystem(hier).profile_stream(stream, "host"),
        MemorySystem(hier).profile_stream(stream, "accel"),
    )


def test_suite_streams_take_the_closed_form(monkeypatch):
    # the first-touch closed form is the whole calibration speedup: a
    # broken exactness check would silently fall back to the replay
    replays = []
    replay = cache_module._replay_dual

    def counted(hier, stream):
        replays.append(len(stream))
        return replay(hier, stream)

    monkeypatch.setattr(cache_module, "_replay_dual", counted)
    streams = 0
    for workload in workloads.all_workloads():
        trace = profile_workload(workload).trace
        if trace is not None and trace.memory:
            profile_stream_dual(None, trace.memory)
            streams += 1
    assert streams == 29
    assert replays == []


@settings(max_examples=15, deadline=None)
@given(
    rob=st.sampled_from([16, 32, 96, 256]),
    width=st.sampled_from([1, 2, 4, 8]),
)
def test_ooo_more_resources_never_slower(rob, width):
    """Monotonicity: growing the ROB or width never increases cycles."""
    from tests.conftest import build_counted_loop, record_function

    m, fn = build_counted_loop()
    trace = record_function(m, fn, [[40]]).blocks

    base = OOOModel(HostConfig(rob_entries=rob, fetch_width=width,
                               issue_width=width, retire_width=width))
    bigger = OOOModel(HostConfig(rob_entries=rob * 2, fetch_width=width * 2,
                                 issue_width=width * 2, retire_width=width * 2))
    assert bigger.simulate(trace).cycles <= base.simulate(trace).cycles
