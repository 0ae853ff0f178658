import pytest

from repro.analysis import LoopInfo
from repro.interp import Interpreter
from repro.ir import verify_function
from repro.transforms.unroll import UnrollError, unroll_hottest_loop, unroll_loop
from tests.conftest import (
    build_array_sum,
    build_counted_loop,
    build_loop_with_branch,
)


@pytest.mark.parametrize("factor", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 16])
def test_unroll_counted_loop_preserves_semantics(factor, n):
    m, fn = build_counted_loop()
    ref = Interpreter(m).run(fn.name, [n])

    m2, fn2 = build_counted_loop()
    loop = LoopInfo.compute(fn2).loops[0]
    unroll_loop(fn2, loop, factor)
    verify_function(fn2)
    assert Interpreter(m2).run(fn2.name, [n]) == ref


@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("n", [0, 3, 7, 13, 40])
def test_unroll_multiblock_body(factor, n):
    """loop_with_branch has a diamond + early exit inside the body."""
    m, fn = build_loop_with_branch()
    ref = Interpreter(m).run(fn.name, [n])

    m2, fn2 = build_loop_with_branch()
    loop = LoopInfo.compute(fn2).loops[0]
    unroll_loop(fn2, loop, factor)
    verify_function(fn2)
    assert Interpreter(m2).run(fn2.name, [n]) == ref


@pytest.mark.parametrize("n", [0, 4, 16])
def test_unroll_memory_loop(n):
    m, fn = build_array_sum()
    ref = Interpreter(m).run(fn.name, [n])
    m2, fn2 = build_array_sum()
    unroll_hottest_loop(fn2, 2)
    verify_function(fn2)
    assert Interpreter(m2).run(fn2.name, [n]) == ref


def test_unroll_grows_block_count():
    m, fn = build_counted_loop()
    before = len(fn.blocks)
    loop = LoopInfo.compute(fn).loops[0]
    unroll_loop(fn, loop, 4)
    assert len(fn.blocks) == before + 3 * len(loop.blocks)


def test_unroll_enlarges_bl_paths():
    """The point of unrolling in the paper: bigger acyclic offload units."""
    from repro.profiling import BallLarusNumbering, count_ops

    m, fn = build_counted_loop()
    base = BallLarusNumbering(fn)
    base_max = max(
        count_ops(base.decode(p)) for p in range(base.total_paths)
    )

    m2, fn2 = build_counted_loop()
    unroll_hottest_loop(fn2, 4)
    unrolled = BallLarusNumbering(fn2)
    unrolled_max = max(
        count_ops(unrolled.decode(p)) for p in range(unrolled.total_paths)
    )
    assert unrolled_max > 2.5 * base_max


def test_unroll_factor_validation():
    m, fn = build_counted_loop()
    loop = LoopInfo.compute(fn).loops[0]
    with pytest.raises(UnrollError):
        unroll_loop(fn, loop, 1)


def test_unroll_no_loops_returns_none(diamond):
    _, fn = diamond
    assert unroll_hottest_loop(fn, 2) is None


def test_unroll_then_profile_pipeline():
    """Unrolled kernels still profile and frame end to end."""
    from repro.frames import build_frame
    from repro.profiling import rank_paths
    from repro.regions import path_to_region
    from tests.conftest import profile_function

    m, fn = build_counted_loop()
    unroll_hottest_loop(fn, 2)
    pp, ep = profile_function(m, fn, [[20]])
    ranked = rank_paths(pp)
    frame = build_frame(path_to_region(fn, ranked[0]))
    assert frame.op_count > 0
