"""The profile post-pass against the replay oracle.

``PathProfile.from_trace``, ``EdgeProfile.from_trace`` and
``OpMix.from_trace`` derive every profile from the recorded block stream
after the run.  They must equal the event-by-event replay oracle
(``tests/profiling/replay_oracle.py``) exactly — counts, the path trace,
and every counter's insertion order, which fixes profile pickle bytes — on
random structured functions and on all 29 suite workloads.  Decoding the
path trace must also reassemble the executed block stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.interp import FuelExhausted, Interpreter, OpMix
from repro.ir import I32, IRBuilder, Module, verify_function
from repro.profiling import EdgeProfile, PathNumberingError, PathProfile
from repro.workloads.base import profile_workload

from tests.conftest import profile_function
from tests.profiling.replay_oracle import replay
from tests.strategies import RandomFunctionBuilder, shapes_strategy, values_strategy

EDGE_COUNTERS = ("edge_counts", "block_counts", "branch_taken", "branch_not_taken")


def assert_matches_oracle(paths, edges, trace):
    oracle = replay(trace)
    assert paths.trace == oracle.paths.trace
    assert list(paths.counts.items()) == list(oracle.paths.counts.items())
    for name in EDGE_COUNTERS:
        got = list(getattr(edges, name).items())
        assert got == list(getattr(oracle.edges, name).items()), name
    mix = OpMix.from_trace(trace)
    assert list(mix.opcodes.items()) == list(oracle.opcodes.items())
    # decoded paths, in trace order, reassemble the executed block stream
    reassembled = [blk for pid in paths.trace for blk in paths.decode(pid)]
    assert reassembled == [blk for blk in trace.blocks if blk is not None]


def _derive(trace):
    return PathProfile.from_trace(trace), EdgeProfile.from_trace(trace)


runs_strategy = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(shapes=shapes_strategy, values=values_strategy, runs=runs_strategy)
def test_post_pass_matches_replay_oracle(shapes, values, runs):
    m, fn = RandomFunctionBuilder(shapes, values).build()
    interp = Interpreter(m, record=[fn], fuel=2_000_000)
    for a, b in runs:
        interp.run("f", [a, b])
    trace = interp.traces[fn]
    assert_matches_oracle(*_derive(trace), trace)


@pytest.mark.parametrize("name", workloads.all_names())
def test_post_pass_matches_replay_oracle_on_suite(name):
    profiled = profile_workload(workloads.get(name))
    assert_matches_oracle(profiled.paths, profiled.edges, profiled.trace)


def test_repeated_runs_accumulate_into_one_profile(counted_loop):
    m, fn = counted_loop
    interp = Interpreter(m, record=[fn])
    for n in (3, 0, 5):
        interp.run("loop", [n])
    trace = interp.traces[fn]
    assert trace.invocations == 3
    paths, edges = _derive(trace)
    # each run flushes one path per iteration plus its exit path
    assert paths.total_executions == 4 + 1 + 6
    assert edges.block_counts[fn.entry] == 3
    # no edge straddles two runs
    assert (fn.get_block("exit"), fn.entry) not in edges.edge_counts
    assert_matches_oracle(paths, edges, trace)


def test_same_target_branch_counts_as_taken():
    m = Module()
    fn = m.add_function("f", [("a", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    join = b.add_block("join")
    b.set_block(entry)
    b.condbr(b.icmp("slt", fn.arg("a"), 0), join, join)
    b.set_block(join)
    b.ret(fn.arg("a"))
    verify_function(fn)
    _, edges = profile_function(m, fn, [[-1], [1], [2]])
    # both outcomes reach the same block, so the fold cannot tell them apart
    assert edges.branch_taken[entry] == 3
    assert entry not in edges.branch_not_taken
    assert edges.branch_bias(entry) == 1.0


def test_activation_stopped_off_exit_is_rejected(counted_loop):
    m, fn = counted_loop
    interp = Interpreter(m, record=[fn], fuel=7)
    with pytest.raises(FuelExhausted):
        interp.run("loop", [10])
    # the run stopped in the loop header, which has no edge to EXIT
    with pytest.raises(PathNumberingError):
        PathProfile.from_trace(interp.traces[fn])
