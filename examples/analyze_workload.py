#!/usr/bin/env python
"""Full Needle analysis of one suite workload, printed as a report.

Run:  python examples/analyze_workload.py 470.lbm
      python examples/analyze_workload.py --list
"""

import argparse
import sys

from repro import PipelineOptions, workloads
from repro.analysis import LoopInfo, branch_memory_stats, predication_stats
from repro.profiling import branch_blocks, count_memory_ops, path_overlap_count
from repro.regions import summarise_expansion


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", nargs="?", default="470.lbm",
                        help="paper name, e.g. 470.lbm or blackscholes")
    parser.add_argument("--list", action="store_true", help="list workloads")
    parser.add_argument("--top", type=int, default=5, help="paths to show")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent artifact cache")
    args = parser.parse_args(argv)

    if args.list:
        for name in workloads.all_names():
            w = workloads.get(name)
            print("%-20s %-8s %s" % (name, w.suite, w.description))
        return 0

    w = workloads.get(args.workload)
    # one options surface for the CLI and the API: flags map straight on
    pipeline = PipelineOptions(no_cache=args.no_cache).build_pipeline()
    analysis = pipeline.analyse(w)
    evaluation = pipeline.evaluate(w)
    fn = analysis.profiled.function

    print("=" * 64)
    print("%s  (%s) - %s" % (w.name, w.suite, w.description))
    print("=" * 64)

    print("\n-- step 1: what to specialise -----------------------------")
    profile = analysis.profiled.paths
    print("hot function        : %s (%d blocks, %d instructions)"
          % (fn.name, len(fn.blocks), fn.instruction_count))
    print("static paths        : %d" % profile.numbering.total_paths)
    print("executed paths      : %d over %d completions"
          % (profile.executed_paths, profile.total_executions))
    bm = branch_memory_stats(fn)
    pred = predication_stats(fn)
    print("Branch=>Mem         : %.1f    Mem=>Branch: %.1f"
          % (bm.avg_mem_dependent_on_branch, bm.avg_mem_branch_depends_on))
    print("predication bits    : %d forward, %d backward branches"
          % (pred.forward_branches, LoopInfo.compute(fn).backward_branch_count))

    print("\ntop paths by Pwt:")
    for p in analysis.ranked[: args.top]:
        print("  #%-6d freq=%-6d ops=%-4d branches=%-2d mem=%-3d cov=%5.1f%%"
              % (p.path_id, p.freq, p.ops, len(branch_blocks(p.blocks)),
                 count_memory_ops(p.blocks), p.coverage * 100))
    print("block overlap (C8)  : %.1f paths share a typical hot block"
          % path_overlap_count(analysis.ranked))

    exp = summarise_expansion(profile, analysis.ranked)
    print("successor bias      : %.0f%% (%s, %s path next) -> x%.2f ops"
          % (exp.bias * 100, exp.bias_bucket,
             "same" if exp.repeats_same_path else "different",
             exp.growth_factor))

    print("\n-- step 2: software frames --------------------------------")
    for label, frame in (("hot path", analysis.path_frame),
                         ("top braid", analysis.braid_frame)):
        if frame is None:
            continue
        print("%s frame: %d ops (%d guards, %d psi, %d undo-log, %d hoisted)"
              % (label, frame.op_count, frame.guard_count, len(frame.psis),
                 frame.store_count, frame.hoisted_op_count))
        print("    live-ins %d, live-outs %d, cancelled phis %d"
              % (len(frame.live_ins), len(frame.live_outs),
                 frame.cancelled_phis))
    braid = analysis.top_braid
    print("top braid merges %d paths for %.1f%% coverage"
          % (braid.n_paths, braid.coverage * 100))

    print("\n-- step 3: accelerator design analysis --------------------")
    sched = evaluation.braid_schedule
    print("CGRA schedule       : %d cycles makespan, II=%d, %d config(s)"
          % (sched.cycles, sched.initiation_interval, sched.n_configs))
    for label, outcome in (("path+oracle ", evaluation.path_oracle),
                           ("path+history", evaluation.path_history),
                           ("braid       ", evaluation.braid)):
        print("%s: perf %+6.1f%%  energy %+6.1f%%  (%d invocations, %d failed,"
              " precision %.0f%%)"
              % (label, outcome.performance_improvement * 100,
                 outcome.energy_reduction * 100, outcome.invocations,
                 outcome.failures, outcome.predictor_precision * 100))
    hls = evaluation.hls
    print("HLS estimate        : %d ALMs (%.0f%% of Cyclone V), %.0f mW"
          % (hls.alms, hls.alm_fraction * 100, hls.total_power_mw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
