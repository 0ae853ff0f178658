"""Table I — control flow characteristics of the hot functions.

Reproduces the four statistics: Branch=>Mem (memory ops control-dependent
on a branch), Mem=>Branch (memory ops feeding a branch condition),
predication bits for full if-conversion, and backward-branch counts,
plus the hyperblock-vs-basic-block size ratio discussed in §II.
``tests/claims/test_table1.py`` asserts the claims on these rows.
"""

from repro.analysis import (
    LoopInfo,
    branch_memory_stats,
    hyperblock_size_stats,
    predication_stats,
)
from repro.reporting import format_table

from .conftest import save_result


def _compute(analyses):
    rows = []
    for a in analyses:
        fn = a.profiled.function
        bm = branch_memory_stats(fn)
        pred = predication_stats(fn)
        loops = LoopInfo.compute(fn)
        hb = hyperblock_size_stats(fn)
        rows.append(
            (
                a.name,
                round(bm.avg_mem_dependent_on_branch, 1),
                round(bm.avg_mem_branch_depends_on, 1),
                pred.forward_branches,
                loops.backward_branch_count,
                round(hb.expansion_ratio, 1),
            )
        )
    return rows


def test_table1_control_flow_characteristics(benchmark, analyses):
    rows = benchmark.pedantic(_compute, args=(analyses,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "Branch=>Mem", "Mem=>Branch", "pred.bits", "back-br", "HB/BB"],
        rows,
        title="Table I: control flow characteristics (hot function)",
    )
    save_result("table1", text)
