"""Backend plug-n-play: Aladdin-style design space exploration (Fig. 1,
Step 3 "Accelerator Design Analysis").

The paper emphasises that Needle's frames feed existing accelerator-design
backends (Aladdin, TDGF, CGRA compilers).  Here the same braid frame is
swept through the Aladdin-style pre-RTL estimator; the latency/power Pareto
frontier is what an architect would use to size a fixed-function unit.
``tests/claims/test_backend_dse.py`` asserts the claims on these rows.
"""

from repro.accel import AladdinEstimator
from repro.reporting import format_table

from .conftest import save_result

TARGETS = ["470.lbm", "456.hmmer", "482.sphinx3"]


def _compute(analyses):
    by_name = {a.name: a for a in analyses}
    est = AladdinEstimator()
    rows = []
    for name in TARGETS:
        frame = by_name[name].braid_frame
        frontier = est.pareto(est.sweep(frame))
        for r in frontier:
            rows.append(
                (
                    name,
                    r.config.int_alus,
                    r.config.fp_alus,
                    r.config.mem_ports,
                    r.latency_cycles,
                    round(r.power_mw, 2),
                    round(r.area_mm2, 3),
                )
            )
    return rows


def test_backend_design_space_exploration(benchmark, analyses):
    rows = benchmark.pedantic(_compute, args=(analyses,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "ALUs", "FPUs", "mem", "latency cyc", "power mW", "area mm2"],
        rows,
        title="Aladdin-backend Pareto frontier per braid frame",
    )
    save_result("backend_dse", text)
