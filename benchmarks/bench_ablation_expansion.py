"""Ablation — pipelined back-to-back invocations (§IV-A target expansion).

BL-paths are acyclic; offload across loop back edges only pays when the
accelerator chains consecutive invocations (the paper enlarges units 2x by
sequencing the repeating path).  Turning pipelining off makes every
invocation pay the full schedule makespan, which is the penalty the
expansion machinery exists to avoid.
``tests/claims/test_ablations.py`` asserts the claims on these rows.
"""

import dataclasses

from repro import NeedlePipeline, workloads
from repro.reporting import format_table
from repro.sim import DEFAULT_CONFIG

from .conftest import save_result

TARGETS = ["470.lbm", "183.equake", "streamcluster", "482.sphinx3", "444.namd"]


def _compute():
    on = NeedlePipeline(DEFAULT_CONFIG)
    off_cfg = dataclasses.replace(
        DEFAULT_CONFIG,
        offload=dataclasses.replace(
            DEFAULT_CONFIG.offload, pipelined_invocations=False
        ),
    )
    off = NeedlePipeline(off_cfg)
    rows = []
    for name in TARGETS:
        w = workloads.get(name)
        a = on.evaluate(w).braid
        b = off.evaluate(w).braid
        rows.append(
            (
                name,
                a.performance_improvement * 100,
                b.performance_improvement * 100,
                (a.performance_improvement - b.performance_improvement) * 100,
            )
        )
    return rows


def test_ablation_invocation_pipelining(benchmark):
    rows = benchmark.pedantic(_compute, rounds=1, iterations=1)
    text = format_table(
        ["workload", "pipelined %", "unpipelined %", "delta pp"],
        rows,
        title="Ablation: pipelined invocations (SIV-A expansion benefit)",
    )
    save_result("ablation_expansion", text)
