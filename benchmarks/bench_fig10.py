"""Fig. 10 — net energy reduction for Braid offload.

Energy falls roughly in proportion to coverage because every offloaded op
elides the host front-end and OOO window.  Paper headline: 20% mean
reduction; FP workloads enjoy larger per-op savings on the spatial fabric.
``tests/claims/test_fig10.py`` asserts the claims on these rows.
"""

import statistics

from repro.reporting import bar_chart, format_table

from .conftest import save_result


def _compute(evaluations):
    rows = []
    for ev in evaluations:
        rows.append(
            (
                ev.name,
                ev.braid.coverage,
                ev.braid.energy_reduction,
                ev.flavor,
            )
        )
    return rows


def test_fig10_energy_reduction(benchmark, evaluations):
    rows = benchmark.pedantic(
        _compute, args=(evaluations,), rounds=1, iterations=1
    )
    table = format_table(
        ["workload", "braid coverage %", "energy reduction %", "flavor"],
        [(n, c * 100, e * 100, f) for n, c, e, f in rows],
        title="Fig. 10: net energy reduction for Braids",
    )
    chart = bar_chart([(n, e) for n, _, e, _ in rows], title="Fig. 10 (chart)")
    mean_e = statistics.mean(r[2] for r in rows)
    summary = (
        "mean energy reduction: %.1f%% (paper: 20%%; our braids cover more\n"
        "of the hot function because the synthetic kernels lack cold\n"
        "scaffolding, which scales the net saving up accordingly)" % (mean_e * 100)
    )
    save_result("fig10", table + "\n\n" + chart + "\n\n" + summary)
