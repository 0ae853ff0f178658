from repro import NeedlePipeline, workloads


def test_analyse_produces_all_artifacts():
    p = NeedlePipeline()
    a = p.analyse(workloads.get("470.lbm"))
    assert a.name == "470.lbm"
    assert a.ranked and a.braids
    assert a.path_frame is not None and a.braid_frame is not None
    assert a.top_path is a.ranked[0]
    assert a.top_braid is a.braids[0]


def test_summary_counts_every_recorded_instruction():
    # the count comes from the trace's block counts, not a sum per event
    p = NeedlePipeline()
    for name in workloads.all_names():
        a = p.analyse(workloads.get(name))
        assert a.summary.dynamic_instructions == (
            a.profiled.trace.dynamic_instructions
        ), name


def test_analyse_is_cached():
    p = NeedlePipeline()
    w = workloads.get("482.sphinx3")
    first, second = p.analyse(w), p.analyse(w)
    for product in ("profiled", "ranked", "braids", "path_frame",
                    "braid_frame", "summary"):
        assert getattr(first, product) is getattr(second, product), product
    assert p.evaluate(w) is p.evaluate(w)


def test_evaluate_produces_outcomes():
    p = NeedlePipeline()
    ev = p.evaluate(workloads.get("482.sphinx3"))
    assert ev.path_oracle is not None
    assert ev.path_history is not None
    assert ev.braid is not None
    assert ev.hls is not None
    assert ev.braid_schedule is not None
    # sphinx3 is a clean FP kernel: all strategies should win big
    assert ev.path_oracle.performance_improvement > 0.5
    assert ev.braid.performance_improvement > 0.5
    assert ev.braid.energy_reduction > 0.15
    assert ev.path_oracle.failures == 0


def test_braid_rescues_unpredictable_workload():
    """The paper's blackscholes story: path offload flat/negative, braid
    strongly positive because merged paths stop failing."""
    p = NeedlePipeline()
    ev = p.evaluate(workloads.get("blackscholes"))
    assert ev.path_oracle.performance_improvement < 0.1
    assert ev.braid.performance_improvement > 0.3


def test_pathological_trio_degrades_under_history_predictor():
    p = NeedlePipeline()
    ev = p.evaluate(workloads.get("freqmine"))
    assert ev.path_history.performance_improvement < -0.05


def test_oracle_upper_bounds_history_on_predictable_workload():
    p = NeedlePipeline()
    ev = p.evaluate(workloads.get("183.equake"))
    assert (
        ev.path_oracle.performance_improvement
        >= ev.path_history.performance_improvement - 1e-9
    )
    assert ev.path_history.predictor_precision > 0.95


def test_evaluate_all_covers_suite():
    p = NeedlePipeline()
    subset = [workloads.get(n) for n in ("470.lbm", "403.gcc")]
    evs = p.evaluate_all(subset)
    assert [e.name for e in evs] == ["470.lbm", "403.gcc"]
    # lbm (wide FP) beats gcc (no ILP) by a wide margin
    assert (
        evs[0].braid.performance_improvement
        > evs[1].braid.performance_improvement
    )


def test_lbm_dominates_hls_area():
    p = NeedlePipeline()
    lbm = p.evaluate(workloads.get("470.lbm"))
    gzip = p.evaluate(workloads.get("164.gzip"))
    assert lbm.hls.alm_fraction > 5 * gzip.hls.alm_fraction
    assert gzip.hls.fits
