from repro.profiling import (
    PathTraceAnalysis,
    compare_frequency_vs_sampling,
    count_ops,
    latency_weight,
    path_overlap_count,
    rank_paths,
    sample_path_profile,
    top_k_coverage,
)

from repro.sim.trace_kernels import run_length_encode
from tests.conftest import profile_function as _profile, record_function


def test_edge_profile_counts(diamond):
    m, fn = diamond
    _, ep = _profile(m, fn, [[1, 5]] * 3 + [[9, 1]])
    entry = fn.get_block("entry")
    then = fn.get_block("then")
    els = fn.get_block("else")
    assert ep.edge_count(entry, then) == 3
    assert ep.edge_count(entry, els) == 1
    assert ep.block_counts[entry] == 4
    assert ep.branch_bias(entry) == 0.75
    assert ep.hottest_successor(entry) is then


def test_branch_bias_none_for_unexecuted(diamond):
    m, fn = diamond
    _, ep = _profile(m, fn, [])
    assert ep.branch_bias(fn.get_block("entry")) is None
    assert ep.branch_biases() == []
    assert ep.bias_distribution() == {}
    assert ep.fraction_unbiased() == 0.0


def test_bias_distribution_sums_to_one(loop_with_branch):
    m, fn = loop_with_branch
    _, ep = _profile(m, fn, [[n] for n in (5, 13, 50)])
    dist = ep.bias_distribution()
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert 0.0 <= ep.fraction_unbiased() <= 1.0


def test_rank_paths_ordering_and_coverage(loop_with_branch):
    m, fn = loop_with_branch
    pp, _ = _profile(m, fn, [[n] for n in (5, 13, 50, 50, 50)])
    ranked = rank_paths(pp)
    weights = [p.weight for p in ranked]
    assert weights == sorted(weights, reverse=True)
    assert abs(sum(p.coverage for p in ranked) - 1.0) < 1e-9
    top = ranked[0]
    assert top.ops == count_ops(top.blocks)
    assert top.weight == top.freq * top.ops
    assert top.entry_block is top.blocks[0]
    assert top.exit_block is top.blocks[-1]
    assert top.branch_count >= 1


def test_rank_paths_limit(loop_with_branch):
    m, fn = loop_with_branch
    pp, _ = _profile(m, fn, [[n] for n in (5, 13, 50)])
    assert len(rank_paths(pp, limit=1)) == 1
    full = rank_paths(pp)
    # limit does not change coverage values (still normalised by full Fwt)
    assert rank_paths(pp, limit=1)[0].coverage == full[0].coverage


def test_function_weight_equals_dynamic_ops(counted_loop):
    m, fn = counted_loop
    pp, _ = _profile(m, fn, [[10]])
    # Fwt: the path weights rank_paths sums to normalise coverage
    fwt = sum(p.weight for p in rank_paths(pp))
    # dynamic non-phi instructions of the whole run
    dyn = sum(
        1
        for blk in record_function(m, fn, [[10]]).blocks
        if blk is not None
        for i in blk.instructions
        if i.opcode != "phi"
    )
    assert fwt == dyn


def test_top_k_coverage_monotone(loop_with_branch):
    m, fn = loop_with_branch
    pp, _ = _profile(m, fn, [[n] for n in (5, 13, 50)])
    cov = top_k_coverage(pp, 5)
    assert all(cov[i] >= cov[i + 1] for i in range(len(cov) - 1))
    assert sum(cov) <= 1.0 + 1e-9


def test_path_overlap_count(loop_with_branch):
    m, fn = loop_with_branch
    pp, _ = _profile(m, fn, [[n] for n in (5, 13, 50)])
    ranked = rank_paths(pp)
    ov = path_overlap_count(ranked)
    assert ov >= 1.0


def test_latency_weight_at_least_count(loop_with_branch):
    m, fn = loop_with_branch
    pp, _ = _profile(m, fn, [[13]])
    for p in rank_paths(pp):
        assert latency_weight(p.blocks) >= count_ops(p.blocks)


def test_path_trace_analysis_successors(counted_loop):
    m, fn = counted_loop
    pp, _ = _profile(m, fn, [[10]])
    analysis = PathTraceAnalysis(pp.trace)
    # the body path repeats itself 9 times then exits
    body_pid = pp.trace[1]
    stats = analysis.successor_stats(body_pid)
    assert stats.repeats_itself
    assert stats.bias > 0.8
    runs = [n for pid, n in run_length_encode(pp.trace).runs if pid == body_pid]
    assert sum(runs) / len(runs) >= 9


def test_path_trace_no_successors():
    analysis = PathTraceAnalysis([7])
    stats = analysis.successor_stats(7)
    assert stats.total == 0 and stats.best_successor is None
    assert stats.bias == 0.0


def test_sampling_comparison(counted_loop):
    m, fn = counted_loop
    pp, _ = _profile(m, fn, [[200]])
    samples = sample_path_profile(pp, sample_period=13)
    assert sum(samples.values()) > 0
    cmp = compare_frequency_vs_sampling(pp, sample_period=13)
    assert 0.0 <= cmp.frequency_weight <= 1.0
    assert 0.0 <= cmp.sampling_weight <= 1.0
    assert abs(cmp.relative_change) < 1.0


def test_sampling_empty_profile(diamond):
    m, fn = diamond
    pp, _ = _profile(m, fn, [])
    cmp = compare_frequency_vs_sampling(pp)
    assert cmp.frequency_weight == 0.0 and cmp.sampling_weight == 0.0
    assert cmp.relative_change == 0.0
