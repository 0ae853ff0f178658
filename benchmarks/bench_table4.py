"""Table IV — Braid characteristics.

C1 braid count, C2 avg paths per braid, C3 top braid coverage, C4 ops,
C5 guards, C6 internal IFs introduced by merging, C7 live values the top
braid's frame transfers.  ``tests/claims/test_table4.py`` asserts the
claims on these rows.
"""

from repro.regions import braid_table_row, build_braids
from repro.reporting import format_table

from .conftest import save_result


def _compute(analyses):
    rows = []
    for a in analyses:
        # Table IV reports the full merge (every executed path groups into
        # some braid), unlike the offload selection which keeps hot paths
        braids = build_braids(a.profiled.function, a.ranked)
        row = braid_table_row(a.profiled.function, braids)
        rows.append(
            (
                a.name,
                row.n_braids,
                round(row.avg_paths_per_braid, 1),
                round(row.top_coverage * 100),
                row.top_ops,
                row.top_guards,
                row.top_ifs,
                "%d,%d" % (row.live_ins, row.live_outs),
            )
        )
    return rows


def test_table4_braid_characteristics(benchmark, analyses):
    rows = benchmark.pedantic(_compute, args=(analyses,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "C1 braids", "C2 paths/braid", "C3 cov%", "C4 ins",
         "C5 guards", "C6 IFs", "C7 in,out"],
        rows,
        title="Table IV: Braid characteristics",
    )
    save_result("table4", text)
