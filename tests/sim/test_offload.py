from repro.frames import build_frame
from repro.ir import Constant, F64, I32, IRBuilder, Module, verify_function
from repro.profiling import PathProfile, rank_paths
from repro.regions import build_braids, path_to_region
from repro.sim import EnergyBreakdown, EnergyModel, OffloadSimulator, DEFAULT_CONFIG

from tests.conftest import record_function


def _ilp_kernel():
    """A loop body with abundant FP ILP — the shape the CGRA wins on."""
    m = Module()
    src = m.add_global("xs", F64, 256, init=[float(i % 17) for i in range(256)])
    dst = m.add_global("ys", F64, 256)
    fn = m.add_function("ilp", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    exit_ = b.add_block("exit")
    b.set_block(entry)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    c = b.icmp("slt", i, fn.arg("n"))
    b.condbr(c, body, exit_)
    b.set_block(body)
    a = b.gep(src, i, 8)
    x = b.load(F64, a)
    # eight independent FP chains
    terms = []
    for k in range(8):
        t = b.fmul(x, 1.0 + k)
        t = b.fadd(t, 0.5 * k)
        t = b.fmul(t, 1.25)
        terms.append(t)
    total = terms[0]
    for t in terms[1:]:
        total = b.fadd(total, t)
    out = b.gep(dst, i, 8)
    b.store(total, out)
    i2 = b.add(i, 1)
    b.br(header)
    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(body, i2)
    b.set_block(exit_)
    b.ret(i)
    verify_function(fn)
    return m, fn


def _profile_with_trace(m, fn, args):
    trace = record_function(m, fn, [args])
    return PathProfile.from_trace(trace), trace


def test_offload_improves_ilp_kernel():
    m, fn = _ilp_kernel()
    pp, trace = _profile_with_trace(m, fn, [200])
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    sim = OffloadSimulator()
    outcome = sim.simulate_offload("ilp", pp, frame, "oracle", trace)
    assert outcome.baseline_cycles > 0
    assert outcome.performance_improvement > 0.10
    assert outcome.energy_reduction > 0.10
    assert outcome.failures == 0
    assert outcome.predictor_precision == 1.0


def test_oracle_never_fails(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    sim = OffloadSimulator()
    oracle = sim.simulate_offload("anticorr", pp, frame, "oracle")
    history = sim.simulate_offload("anticorr", pp, frame, "history")
    assert oracle.failures == 0
    assert oracle.predictor_precision == 1.0
    # the history predictor may decline unprofitable invocations, but it can
    # never invoke *more* correctly than the oracle
    assert history.invocations - history.failures <= oracle.invocations


def test_braid_covers_more_than_path(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    ranked = rank_paths(pp)
    path_frame = build_frame(path_to_region(fn, ranked[0]))
    braid = build_braids(fn, ranked)[0]
    braid_frame = build_frame(braid.region)
    sim = OffloadSimulator()
    p = sim.simulate_offload("anticorr", pp, path_frame, "oracle")
    br = sim.simulate_offload("anticorr", pp, braid_frame, "oracle", coverage=braid.coverage)
    # the braid absorbs both alternating paths -> strictly more invocations
    assert br.invocations > p.invocations
    assert br.coverage > p.coverage
    assert br.strategy == "braid"


def test_failed_invocations_cost_cycles(profiled_anticorrelated):
    """Every failure charges the frame + rollback + host re-execution, so a
    run with failures is strictly slower than the same run without them."""
    m, fn, pp, ep = profiled_anticorrelated
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    sim = OffloadSimulator()
    history = sim.simulate_offload("anticorr", pp, frame, "history")
    oracle = sim.simulate_offload("anticorr", pp, frame, "oracle")
    if history.failures:
        # failures always burn at least the frame makespan each
        assert (
            history.needle_cycles
            >= oracle.needle_cycles
            - (oracle.invocations - history.invocations) * frame.op_count
        )
    assert history.failures + (history.invocations - history.failures) == history.invocations


def test_baseline_strategy_consistency():
    m, fn = _ilp_kernel()
    pp, trace = _profile_with_trace(m, fn, [100])
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    sim = OffloadSimulator()
    a = sim.simulate_offload("ilp", pp, frame, "oracle", trace)
    b = sim.simulate_offload("ilp", pp, frame, "oracle", trace)
    assert a.baseline_cycles == b.baseline_cycles
    assert a.needle_cycles == b.needle_cycles


def test_energy_breakdown_math():
    e = EnergyBreakdown(frontend_pj=10, fu_pj=5)
    f = EnergyBreakdown(frontend_pj=1, network_pj=2)
    s = e + f
    assert s.frontend_pj == 11 and s.network_pj == 2
    assert s.total_pj == 18


def test_energy_model_host_vs_cgra_per_op():
    model = EnergyModel(DEFAULT_CONFIG.energy, DEFAULT_CONFIG.cgra)
    from repro.sim import OOOResult

    census = OOOResult(instructions=100, int_ops=100)
    host = model.host_energy(census).total_pj
    cgra = model.frame_energy(
        n_int_ops=100, n_fp_ops=0, n_mem_ops=0, n_edges=100
    ).total_pj
    # front-end elision: the CGRA must be cheaper per op
    assert cgra < host


def test_calibrate_defaults():
    sim = OffloadSimulator()
    cal = sim.calibrate(None)
    assert cal.host_load_latency == DEFAULT_CONFIG.memory.l1.latency
    assert cal.accel_load_latency == DEFAULT_CONFIG.memory.l2.latency
    assert cal.host_levels == {} and cal.accel_levels == {}
