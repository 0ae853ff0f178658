"""Simulation-time benchmark: run-length trace kernels + simulation memo.

Measures, with real wall clocks and the artifact cache disabled, what the
two perf layers buy:

* **per-workload** — the three-strategy simulation bill (path-oracle,
  path-history, braid) under the reference configuration (a fresh
  :class:`~repro.sim.EventOracleSimulator` per strategy call with the
  memo off, so nothing is shared) vs the shipped one (one
  :class:`~repro.sim.OffloadSimulator` and its memo, over inputs whose
  memo tables start empty), best of ``_REPEATS`` cold runs each, with
  the outcomes checked identical;
* **suite-level** — cold full-suite wall clock in the shipped
  configuration, plus a warm artifact-cache pass whose speedup is gated
  against the floor recorded in the committed ``BENCH_sim.json``
  (same-ratio comparisons are machine-stable, unlike absolute seconds —
  the pattern of ``bench_obs_overhead.py``).

Everything lands machine-readable in ``BENCH_sim.json`` at the repo root
(section ``"sim_memo"``) next to the ``pipeline_scaling`` section, and
human-readable in ``benchmarks/results/sim_memo.txt``.
"""

import os
import time

from repro.options import PipelineOptions
from repro.sim import EventOracleSimulator, OffloadSimulator, SimulationMemo
from repro.workloads.base import clear_profile_cache

from .conftest import load_bench_json, save_result, update_bench_json

#: cold repeats per (workload, mode); best is kept to shed scheduler noise
_REPEATS = 3

#: the acceptance bar: the shipped configuration must at least halve the
#: three-strategy simulation time on at least this fraction of the suite
_SPEEDUP_BAR = 2.0
_SUITE_FRACTION = 0.5

#: warm-cache suite speedup floor used when BENCH_sim.json has none yet
_DEFAULT_WARM_FLOOR = 3.0


def _three_strategies(sim_for_call, analysis):
    """The exact simulation calls one pipeline evaluation makes;
    ``sim_for_call()`` supplies the simulator of each call."""
    profiled = analysis.profiled
    out = []
    if analysis.path_frame is not None:
        out.append(sim_for_call().simulate_offload(
            profiled.workload.name, profiled.paths, analysis.path_frame,
            "oracle", profiled.trace,
        ))
        out.append(sim_for_call().simulate_offload(
            profiled.workload.name, profiled.paths, analysis.path_frame,
            "history", profiled.trace,
        ))
    if analysis.braid_frame is not None:
        out.append(sim_for_call().simulate_offload(
            profiled.workload.name, profiled.paths, analysis.braid_frame,
            "oracle", profiled.trace,
        ))
    return out


class _ConstituentsKept(SimulationMemo):
    """The reference arm's memo: every lookup recomputes, except the braid
    constituents' recurrence summaries (see :func:`_empty_tables`)."""

    def get(self, kind, obj, extra, compute):
        if kind == "constituents":
            return super().get(kind, obj, extra, compute)
        return compute()


def _reference_arm(analysis):
    # a fresh event-oracle simulator per strategy call, memo off: no
    # sub-simulation is shared, only the braid's analysis
    def simulator():
        sim = EventOracleSimulator()
        sim.memo = _ConstituentsKept()
        return sim

    return _three_strategies(simulator, analysis)


def _shipped_arm(analysis):
    sim = OffloadSimulator()  # one simulator, one memo for all three
    return _three_strategies(lambda: sim, analysis)


def _empty_tables(analysis):
    """Drop the memo entries the trace, profile and frames carry, so the
    next repeat computes each sub-simulation again.  The braid frame's
    ``constituents`` entry stays: the constituents' recurrence summaries
    are config-independent analysis of the frame, which both arms share
    (the memo-off reference reads them too)."""
    profiled = analysis.profiled
    for obj in (profiled.trace, profiled.paths,
                analysis.path_frame, analysis.braid_frame):
        if obj is not None:
            table = obj.memo_table
            for key in [key for key in table if key[0] != "constituents"]:
                del table[key]


def _best_of(arm, analysis):
    best, outcomes = float("inf"), None
    for _ in range(_REPEATS):
        # the memo entries live on the inputs: empty them, so each
        # repeat is a cold run
        _empty_tables(analysis)
        t0 = time.perf_counter()
        outcomes = arm(analysis)
        best = min(best, time.perf_counter() - t0)
    return best, outcomes


def test_sim_memo_speedup(suite):
    # analysis (profiling, framing) is shared and untimed: the claim under
    # test is about *simulation* time, which is where the memo and the
    # kernels live
    pipe = PipelineOptions(no_cache=True).build_pipeline()
    analyses = {w.name: pipe.analyse(w) for w in suite}

    per_workload = []
    for w in suite:
        analysis = analyses[w.name]
        ref_t, ref_out = _best_of(_reference_arm, analysis)
        fast_t, fast_out = _best_of(_shipped_arm, analysis)
        # a wrong-but-fast simulator is worthless
        assert [vars(a) for a in fast_out] == [vars(b) for b in ref_out]
        per_workload.append({
            "workload": w.name,
            "reference_seconds": ref_t,
            "fast_seconds": fast_t,
            "speedup": ref_t / fast_t,
        })

    # suite-level wall clocks: cold (no artifact cache), then cold + warm
    # against a scratch cache for the gated warm-path speedup
    clear_profile_cache()
    t0 = time.perf_counter()
    PipelineOptions(no_cache=True).build_pipeline().evaluate_all(suite)
    cold_suite = time.perf_counter() - t0

    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        clear_profile_cache()
        opts = dict(cache_dir=os.path.join(cache_dir, "cache"))
        PipelineOptions(**opts).build_pipeline().evaluate_all(suite)
        clear_profile_cache()
        t0 = time.perf_counter()
        PipelineOptions(**opts).build_pipeline().evaluate_all(suite)
        warm_suite = time.perf_counter() - t0
    warm_speedup = cold_suite / warm_suite

    n_fast = sum(row["speedup"] >= _SPEEDUP_BAR for row in per_workload)
    recorded = load_bench_json().get("sim_memo", {})
    warm_floor = recorded.get("warm_speedup_floor", _DEFAULT_WARM_FLOOR)

    update_bench_json("sim_memo", {
        "suite_size": len(suite),
        "repeats": _REPEATS,
        "per_workload": per_workload,
        "workloads_at_least_%gx" % _SPEEDUP_BAR: n_fast,
        "cold_suite_seconds": cold_suite,
        "warm_suite_seconds": warm_suite,
        "warm_speedup": warm_speedup,
        "warm_speedup_floor": warm_floor,
    })

    lines = [
        "three-strategy simulation time, reference (fresh event-oracle "
        "simulator per call, memo off) vs shipped (rle + memo); best of %d "
        "cold runs" % _REPEATS,
        "",
    ]
    for row in sorted(per_workload, key=lambda r: -r["speedup"]):
        lines.append("%-22s ref %7.2f ms   fast %7.2f ms   %5.2fx" % (
            row["workload"], row["reference_seconds"] * 1e3,
            row["fast_seconds"] * 1e3, row["speedup"],
        ))
    lines += [
        "",
        ">= %.0fx on %d/%d workloads (gate: at least %d)"
        % (_SPEEDUP_BAR, n_fast, len(suite),
           int(len(suite) * _SUITE_FRACTION + 0.5)),
        "cold suite %.2f s; warm artifact cache %.2f s (%.1fx, floor %.1fx)"
        % (cold_suite, warm_suite, warm_speedup, warm_floor),
    ]
    save_result("sim_memo", "\n".join(lines))

    assert n_fast >= len(suite) * _SUITE_FRACTION
    assert warm_speedup >= warm_floor
