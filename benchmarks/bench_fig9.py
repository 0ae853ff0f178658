"""Fig. 9 — whole-workload performance improvement from offload.

Three bars per workload: BL-path with Oracle invocation, BL-path with the
history predictor, and the top Braid.  Paper headline: mean ~24% for paths
(5 workloads degrade), mean ~33% for braids (low degradation potential);
high-ILP workloads (lbm, ferret, swaptions, sar-pfa-interp1) near the top,
gcc/vpr near zero, the freqmine/bodytrack/blackscholes trio suffering under
the history predictor.  ``tests/claims/test_fig9.py`` asserts the claims
on these rows.
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
                ev.path_oracle.performance_improvement,
                ev.path_history.performance_improvement,
                ev.path_history.predictor_precision,
                ev.braid.performance_improvement,
            )
        )
    return rows


def test_fig9_performance_improvement(benchmark, evaluations):
    rows = benchmark.pedantic(
        _compute, args=(evaluations,), rounds=1, iterations=1
    )
    table = format_table(
        ["workload", "path oracle %", "path history %", "precision %", "braid %"],
        [
            (n, po * 100, ph * 100, pr * 100, br * 100)
            for n, po, ph, pr, br in rows
        ],
        title="Fig. 9: performance improvement (cycle reduction)",
    )
    chart = bar_chart(
        [(n, br) for n, _, _, _, br in rows], title="Fig. 9 (braid bars)"
    )
    mean_po = statistics.mean(r[1] for r in rows)
    mean_ph = statistics.mean(r[2] for r in rows)
    mean_br = statistics.mean(r[4] for r in rows)
    summary = (
        "means: path-oracle %.1f%%  path-history %.1f%%  braid %.1f%%\n"
        "(paper: ~24%% path mean, ~33%% braid mean; our host model is\n"
        " weaker relative to the 128-FU fabric, scaling gains up ~1.5x)"
        % (mean_po * 100, mean_ph * 100, mean_br * 100)
    )
    save_result("fig9", table + "\n\n" + chart + "\n\n" + summary)
