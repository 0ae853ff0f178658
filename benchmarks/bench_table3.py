"""Table III — next-path target expansion across loop back edges.

For each workload: how biased is the hottest path's successor in the path
trace, does the same path repeat (2x unroll opportunity), and how much does
chaining grow the offload unit.  ``tests/claims/test_table3.py`` asserts
the claims on these rows.
"""

from collections import defaultdict

from repro.regions import summarise_expansion
from repro.reporting import format_table

from .conftest import save_result


def _compute(analyses):
    rows = []
    for a in analyses:
        s = summarise_expansion(a.profiled.paths, a.ranked)
        rows.append(
            (
                a.name,
                s.bias * 100,
                s.bias_bucket,
                "same" if s.repeats_same_path else "different",
                s.growth_factor,
            )
        )
    return rows


def test_table3_target_expansion(benchmark, analyses):
    rows = benchmark.pedantic(_compute, args=(analyses,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "seq.bias%", "bucket", "successor", "+ops factor"],
        rows,
        title="Table III: next-path target expansion",
    )
    buckets = defaultdict(list)
    for name, _, bucket, _, _ in rows:
        buckets[bucket].append(name)
    summary = "\n".join(
        "%-8s : %2d workloads : %s" % (b, len(ws), " ".join(ws))
        for b, ws in sorted(buckets.items(), reverse=True)
    )
    save_result("table3", text + "\n\nBucket summary\n" + summary)
