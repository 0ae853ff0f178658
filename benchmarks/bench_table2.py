"""Table II — characteristics of the top-5 ranked BL paths per workload.

C1 executed paths, C2 top-5 coverage, C3 instructions, C4 branches,
C5 live in/out values, C6 cancelled phis, C7 memory ops, C8 overlap.
``tests/claims/test_table2.py`` asserts the claims on these rows.
"""

from repro.profiling import branch_blocks, count_memory_ops, path_overlap_count
from repro.reporting import format_table

from .conftest import save_result


def _compute(analyses):
    rows = []
    for a in analyses:
        ranked = a.ranked
        top5 = ranked[:5]
        cov5 = sum(p.coverage for p in top5) * 100
        ins = round(sum(p.ops for p in top5) / max(1, len(top5)))
        branches = round(
            sum(len(branch_blocks(p.blocks)) for p in top5) / max(1, len(top5))
        )
        mem = round(
            sum(count_memory_ops(p.blocks) for p in top5) / max(1, len(top5))
        )
        frame = a.path_frame
        live_in = len(frame.live_ins) if frame else 0
        live_out = len(frame.live_outs) if frame else 0
        phis = frame.cancelled_phis if frame else 0
        overlap = path_overlap_count(ranked, 5)
        rows.append(
            (
                a.name,
                a.profiled.paths.executed_paths,
                round(cov5),
                ins,
                branches,
                "%d,%d" % (live_in, live_out),
                phis,
                mem,
                round(overlap, 1),
            )
        )
    return rows


def test_table2_path_characteristics(benchmark, analyses):
    rows = benchmark.pedantic(_compute, args=(analyses,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "C1 exec", "C2 cov5%", "C3 ins", "C4 br",
         "C5 in,out", "C6 phi", "C7 mem", "C8 ovl"],
        rows,
        title="Table II: BL path characteristics (top five paths)",
    )
    save_result("table2", text)
