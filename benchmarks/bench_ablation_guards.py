"""Ablation — guard failure detection point (§V guard placement).

The paper's evaluation conservatively detects guard failure only at frame
end, wasting the entire invocation.  Eager detection aborts around the mean
guard position; the delta is the price of the conservative assumption and
only matters where invocations actually fail.
``tests/claims/test_ablations.py`` asserts the claims on these rows.
"""

import dataclasses

from repro import NeedlePipeline, workloads
from repro.reporting import format_table
from repro.sim import DEFAULT_CONFIG

from .conftest import save_result

#: workloads where the history predictor actually misses (failures exist)
TARGETS = ["164.gzip", "181.mcf", "freqmine", "fluidanimate", "464.h264ref"]


def _compute():
    lazy_cfg = DEFAULT_CONFIG
    eager_cfg = dataclasses.replace(
        DEFAULT_CONFIG,
        offload=dataclasses.replace(
            DEFAULT_CONFIG.offload, detect_failure_at_end=False
        ),
    )
    lazy = NeedlePipeline(lazy_cfg)
    eager = NeedlePipeline(eager_cfg)
    rows = []
    for name in TARGETS:
        w = workloads.get(name)
        l = lazy.evaluate(w).path_history
        e = eager.evaluate(w).path_history
        rows.append(
            (
                name,
                l.failures,
                l.performance_improvement * 100,
                e.performance_improvement * 100,
                (e.performance_improvement - l.performance_improvement) * 100,
            )
        )
    return rows


def test_ablation_guard_detection_point(benchmark):
    rows = benchmark.pedantic(_compute, rounds=1, iterations=1)
    text = format_table(
        ["workload", "failures", "detect-at-end %", "eager %", "delta pp"],
        rows,
        title="Ablation: guard failure detection point (history predictor)",
    )
    save_result("ablation_guards", text)
