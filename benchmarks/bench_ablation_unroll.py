"""Ablation — loop unrolling before path profiling (§VI's 4x unrolling).

Unrolling enlarges the acyclic offload unit (a BL path now spans several
iterations) at the cost of a larger fabric mapping — the same trade the
paper's blackscholes discussion attributes its predictor pathology to.
"""

from repro.frames import build_frame
from repro.interp import Interpreter
from repro.profiling import PathProfile, rank_paths
from repro.regions import path_to_region
from repro.reporting import format_table
from repro.sim import OffloadSimulator
from repro.transforms import unroll_hottest_loop
from repro.workloads import get

from .conftest import save_result

TARGETS = ["482.sphinx3", "dwt53", "450.soplex"]
FACTORS = [1, 2, 4]


def _profile(module, fn, args):
    interp = Interpreter(module, record=[fn])
    interp.run(fn, args)
    trace = interp.traces[fn]
    return PathProfile.from_trace(trace), trace


def _compute():
    sim = OffloadSimulator()
    rows = []
    for name in TARGETS:
        for factor in FACTORS:
            module, fn, args = get(name).build()
            if factor > 1:
                unroll_hottest_loop(fn, factor)
            profile, trace = _profile(module, fn, args)
            ranked = rank_paths(profile)
            frame = build_frame(path_to_region(fn, ranked[0]))
            outcome = sim.simulate_offload(
                name, profile, frame, "oracle", trace
            )
            rows.append(
                (
                    name,
                    factor,
                    ranked[0].ops,
                    frame.guard_count,
                    outcome.performance_improvement * 100,
                )
            )
    return rows


def test_ablation_unroll_factor(benchmark):
    rows = benchmark.pedantic(_compute, rounds=1, iterations=1)
    text = format_table(
        ["workload", "unroll", "path ops", "guards", "path-oracle %"],
        rows,
        title="Ablation: unrolling before path formation",
    )
    save_result("ablation_unroll", text)

    # unrolling monotonically enlarges the hot path
    for name in TARGETS:
        series = [r for r in rows if r[0] == name]
        ops = [r[2] for r in series]
        assert ops == sorted(ops), name
        # a 4x unroll should be roughly 4x the base path
        assert ops[-1] > 3 * ops[0], name
