#!/usr/bin/env python
"""The compiler-side of Needle: text IR -> inline -> optimize -> unroll ->
profile -> offload analysis.

The paper's methodology aggressively inlines call sequences before path
profiling (SII) and leans on loop unrolling to enlarge offload units (SVI).
This example drives those transforms on a kernel written as textual IR.

Run:  python examples/compiler_pipeline.py
"""

from repro.frames import build_frame
from repro.interp import Interpreter
from repro.ir import format_function, parse_module, verify_module
from repro.profiling import PathProfile, branch_blocks, rank_paths
from repro.regions import build_braids
from repro.sim import OffloadSimulator
from repro.transforms import inline_all, optimize, unroll_hottest_loop

KERNEL = """
@samples = global [1024 x i32]
@out = global [1024 x i32]

define i32 @weight(i32 %v) {
entry:
  %c = icmp sgt i32 %v, 128
  condbr %c, label %heavy, label %light
heavy:
  %h = mul i32 %v, 3
  br label %join
light:
  %l = add i32 %v, 7
  br label %join
join:
  %w = phi i32 [ %h, %heavy ], [ %l, %light ]
  ret i32 %w
}

define i32 @hot(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  condbr %cond, label %body, label %exit
body:
  %masked = and i32 %i, 1023
  %p = gep @samples, %masked, 4
  %v = load i32, %p
  %w = call i32 @weight(i32 %v)
  %scaled = mul i32 %w, 2
  %acc2 = add i32 %acc, %scaled
  %q = gep @out, %masked, 4
  store i32 %acc2, %q
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"""


def main():
    module = parse_module(KERNEL, name="pipeline-demo")
    verify_module(module)
    hot = module.get_function("hot")
    print("parsed %d functions; @hot has %d instructions"
          % (len(module.functions), hot.instruction_count))

    # reference semantics before any transform
    ref = Interpreter(module).run("hot", [500])

    n_inlined = inline_all(hot)
    counts = optimize(hot)
    loop = unroll_hottest_loop(hot, 2)
    verify_module(module)
    assert Interpreter(module).run("hot", [500]) == ref, "transforms must preserve semantics"
    print("inlined %d call(s); folded %d, cfg %d, dce %d; unrolled %s 2x"
          % (n_inlined, counts["folded"], counts["cfg"], counts["dce"],
             loop.header.name if loop else "<none>"))
    print("\n=== transformed hot function ===")
    print(format_function(hot))

    # profile -> braid -> frame -> simulate
    interp = Interpreter(module, record=[hot])
    interp.run("hot", [500])
    trace = interp.traces[hot]
    profile = PathProfile.from_trace(trace)
    ranked = rank_paths(profile)
    print("\npaths after transforms: %d executed" % profile.executed_paths)
    for p in ranked[:3]:
        print("  cov %5.1f%%  ops %3d  branches %d"
              % (p.coverage * 100, p.ops, len(branch_blocks(p.blocks))))

    braid = build_braids(hot, ranked)[0]
    frame = build_frame(braid.region)
    outcome = OffloadSimulator().simulate_offload(
        "pipeline-demo", profile, frame, "oracle", trace
    )
    print("\nbraid: %d paths, %.1f%% coverage, frame %d ops / %d guards"
          % (braid.n_paths, braid.coverage * 100, frame.op_count,
             frame.guard_count))
    print("offload: %+.1f%% performance, %+.1f%% energy"
          % (outcome.performance_improvement * 100,
             outcome.energy_reduction * 100))


if __name__ == "__main__":
    main()
