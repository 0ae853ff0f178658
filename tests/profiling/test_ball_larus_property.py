"""Property-based tests: BL numbering over randomly generated reducible CFGs.

Strategy: build a random structured function from nested constructs
(sequence, if/else, while-loop) so the CFG is always reducible, then check
the core BL invariants: ids are compact, decode/encode is a bijection, every
decoded path is a real CFG walk, and profiling a run yields ids whose
decoded paths concatenate back to the executed block sequence.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.interp import Interpreter
from repro.profiling import BallLarusNumbering, PathProfile

from tests.strategies import RandomFunctionBuilder, shapes_strategy, values_strategy


@settings(max_examples=40, deadline=None)
@given(shapes=shapes_strategy, values=values_strategy)
def test_decode_encode_bijection(shapes, values):
    _, fn = RandomFunctionBuilder(shapes, values).build()
    bl = BallLarusNumbering(fn)
    assert bl.total_paths >= 1
    seen = set()
    for pid in range(min(bl.total_paths, 512)):
        blocks = bl.decode(pid)
        key = tuple(b.name for b in blocks)
        assert key not in seen
        seen.add(key)
        assert bl.encode(blocks) == pid
        # decoded path must be a contiguous CFG walk
        for u, v in zip(blocks, blocks[1:]):
            assert v in u.successors


@settings(max_examples=30, deadline=None)
@given(
    shapes=shapes_strategy,
    values=values_strategy,
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
)
def test_profiled_paths_reassemble_execution(shapes, values, a, b):
    m, fn = RandomFunctionBuilder(shapes, values).build()
    interp = Interpreter(m, record=[fn], fuel=2_000_000)
    interp.run("f", [a, b])

    profile = PathProfile.from_trace(interp.traces[fn])
    executed = [blk for blk in interp.traces[fn].blocks if blk is not None]

    # concatenating decoded paths in trace order must equal the block stream
    reassembled = []
    for pid in profile.trace:
        reassembled.extend(profile.decode(pid))
    assert [blk.name for blk in reassembled] == [blk.name for blk in executed]
    # total executions equal the number of completed paths
    assert profile.total_executions == len(profile.trace)
