"""Unit tests for OffloadSimulator internals: per-path costs, baseline
accounting, loop-carried pair derivation and executed-fraction energy."""

from repro.frames import build_frame
from repro.profiling import PathProfile, rank_paths
from repro.regions import build_braids, path_to_region
from repro.sim import OffloadSimulator, OOOModel

from tests.conftest import build_counted_loop, record_function


def _profiled(build, args):
    m, fn = build()
    trace = record_function(m, fn, [args])
    return m, fn, PathProfile.from_trace(trace), trace


def test_path_costs_cover_every_path():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    sim = OffloadSimulator()
    costs = sim.path_costs(profile, host_load_latency=2)
    assert set(costs) == set(profile.counts)
    for pid, cost in costs.items():
        assert cost.cycles > 0
        assert cost.instructions > 0


def test_amortisation_reduces_per_execution_cost():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    model = OOOModel(fixed_load_latency=2)
    hot = list(profile.decode(max(profile.counts, key=profile.counts.get)))
    amortised = model.simulate(hot * 8).cycles / 8
    standalone = model.simulate(hot).cycles
    # overlapped iterations cost less per execution than isolated ones
    assert amortised <= standalone


def test_baseline_is_count_weighted_sum():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    sim = OffloadSimulator()
    costs = sim.path_costs(profile, 2)
    cycles, energy, _attr = sim.baseline_attributed(profile, costs)
    manual = sum(profile.counts[pid] * costs[pid].cycles for pid in costs)
    assert abs(cycles - manual) < 1e-9
    assert energy > 0


def test_loop_carried_pairs_derived_from_back_edge():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    ranked = rank_paths(profile)
    frame = build_frame(path_to_region(fn, ranked[0]))
    pairs = OffloadSimulator._loop_carried(frame)
    # i and acc phis both carry
    assert len(pairs) == 2
    for phi, val in pairs:
        assert phi.opcode == "phi"
        assert val is phi.incoming_for(frame.region.blocks[-1])


def test_exec_fraction_scales_braid_energy(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    braid = build_braids(fn, rank_paths(pp))[0]
    frame = build_frame(braid.region)
    sim = OffloadSimulator()
    outcome = sim.simulate_offload("anticorr", pp, frame, "oracle")
    # each braid invocation only executes one arm, so the needle energy is
    # strictly below (invocations x whole-frame energy)
    from repro.accel.cgra import CGRAScheduler

    sched = CGRAScheduler(sim.config.cgra).schedule(frame)
    whole = sim.energy_model.frame_energy(
        n_int_ops=sched.int_ops + sched.guard_ops,
        n_fp_ops=sched.fp_ops,
        n_mem_ops=sched.mem_ops,
        n_edges=sched.edges,
        l2_accesses=sched.mem_ops,
    ).total_pj
    assert outcome.needle_energy_pj < outcome.invocations * whole


def test_outcome_properties_zero_division_guards():
    from repro.sim import OffloadOutcome

    o = OffloadOutcome(
        workload="x", strategy="braid",
        baseline_cycles=0, needle_cycles=0,
        baseline_energy_pj=0, needle_energy_pj=0,
    )
    assert o.performance_improvement == 0.0
    assert o.energy_reduction == 0.0
