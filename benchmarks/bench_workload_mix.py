"""Suite characterisation: dynamic instruction mix of the 29 workloads.

Validates that the synthetic suite carries the operational character the
paper's suites have — FP-dominated scientific kernels, integer search/
compress codes, memory-heavy DP — which everything downstream (energy
split, HLS area, FPU contention) depends on.
"""

from repro.interp import OpMix
from repro.reporting import format_table
from repro.workloads import profile_workload

from .conftest import save_result


def _compute(suite):
    rows = []
    for w in suite:
        mix = OpMix.from_trace(profile_workload(w).trace)
        rows.append(
            (
                w.name,
                w.flavor,
                mix.int_share * 100,
                mix.fp_share * 100,
                mix.memory_share * 100,
                mix.control_share * 100,
                mix.total,
            )
        )
    return rows


def test_workload_instruction_mix(benchmark, suite):
    rows = benchmark.pedantic(_compute, args=(suite,), rounds=1, iterations=1)
    text = format_table(
        ["workload", "flavor", "int %", "fp %", "mem %", "ctl %", "dyn ops"],
        rows,
        title="Suite characterisation: dynamic instruction mix",
    )
    save_result("workload_mix", text)

    by_name = {r[0]: r for r in rows}
    # declared flavor matches the measured mix
    for name, flavor, int_s, fp_s, mem_s, ctl_s, total in rows:
        if flavor == "fp":
            assert fp_s > 15, name
        else:
            assert fp_s < 10, name
        assert total > 500, name
        assert abs(int_s + fp_s + mem_s + ctl_s - 100) < 1e-6
    # the canonical extremes
    assert by_name["470.lbm"][3] > 40  # fp share
    assert by_name["456.hmmer"][4] > by_name["blackscholes"][4]  # mem share
