#!/usr/bin/env python
"""Explore the Braid merge-depth trade-off of paper SIV-B.

For a chosen workload, sweep how many ranked paths the braid may absorb and
watch coverage climb while the region grows — then simulate each point to
see where merging stops paying.

Run:  python examples/braid_tradeoffs.py [workload] [--depths 1 2 4 8 all]
"""

import argparse
import sys

from repro import workloads
from repro.frames import build_frame
from repro.profiling import rank_paths
from repro.regions import build_braids
from repro.reporting import format_table
from repro.sim import OffloadSimulator
from repro.workloads import profile_workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", nargs="?", default="blackscholes")
    parser.add_argument("--depths", nargs="*", default=["1", "2", "4", "8", "all"])
    args = parser.parse_args(argv)

    w = workloads.get(args.workload)
    profiled = profile_workload(w)
    ranked = rank_paths(profiled.paths)
    sim = OffloadSimulator()

    rows = []
    for spec in args.depths:
        depth = None if spec == "all" else int(spec)
        braids = build_braids(profiled.function, ranked, max_paths_per_braid=depth)
        top = braids[0]
        frame = build_frame(top.region)
        outcome = sim.simulate_offload(
            w.name, profiled.paths, frame, "oracle", profiled.trace
        )
        rows.append(
            (
                spec,
                top.n_paths,
                top.coverage * 100,
                top.region.op_count,
                top.region.coverage_per_op * 1000,
                len(top.region.guard_branches()),
                len(top.region.internal_branches()),
                outcome.performance_improvement * 100,
                outcome.energy_reduction * 100,
            )
        )

    print(
        format_table(
            ["depth", "merged", "cov %", "ops", "cov/op (x1e3)", "guards",
             "IFs", "perf %", "energy %"],
            rows,
            title="Braid merge depth sweep: %s" % w.name,
        )
    )
    print(
        "\nReading the table: coverage (and usually performance) climbs as\n"
        "more sibling paths merge; coverage-per-op tells you when the extra\n"
        "fabric area stops paying for itself (paper SIV-B)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
