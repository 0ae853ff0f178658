"""Fig. 9 — whole-workload performance improvement from offload (§VI).

Rows are ``(workload, path oracle, path history, history precision,
braid)`` improvements as fractions.  Paper headline: mean ~24% for paths
(5 workloads degrade), mean ~33% for braids."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.bench_fig9 import _compute

HIGH_ILP = ("470.lbm", "183.equake", "482.sphinx3", "streamcluster")
LOW_MARGIN = ("186.crafty", "458.sjeng", "401.bzip2")
#: the pathologically unpredictable trio (§VI ③)
TRIO = ("freqmine", "bodytrack", "blackscholes")


@pytest.fixture(scope="module")
def rows(evaluations):
    return _compute(evaluations)


@pytest.fixture(scope="module")
def by_name(rows):
    return {r[0]: r for r in rows}


def test_path_offload_mean_is_positive(rows):
    # measured 0.332
    mean_po = statistics.mean(r[1] for r in rows)
    assert mean_po > 0.10, "path-oracle mean %.3f, bound > 0.10" % mean_po


def test_braids_beat_paths_on_average(rows):
    # paper 24% vs 33%; measured 0.332 vs 0.596
    mean_po = statistics.mean(r[1] for r in rows)
    mean_br = statistics.mean(r[4] for r in rows)
    assert mean_br > mean_po, "braid mean %.3f, path mean %.3f" % (
        mean_br, mean_po)


def test_high_ilp_workloads_win_big(by_name):
    # ① measured 0.777 to 0.856
    for name in HIGH_ILP:
        assert by_name[name][1] > 0.4, "%s path oracle %.3f, bound > 0.4" % (
            name, by_name[name][1])


def test_low_margin_workloads_hover_near_zero(by_name):
    # ② measured -0.012 to -0.002
    for name in LOW_MARGIN:
        assert abs(by_name[name][1]) < 0.15, (
            "%s path oracle %.3f, bound |x| < 0.15" % (name, by_name[name][1]))


def test_pathological_trio_never_profits_from_paths(by_name):
    # ③ measured path oracle -0.069 to -0.016, worst history -0.318
    for name in TRIO:
        assert by_name[name][1] < 0.1, "%s path oracle %.3f, bound < 0.1" % (
            name, by_name[name][1])
    worst = min(by_name[n][2] for n in TRIO)
    assert worst < -0.05, "worst trio path history %.3f, bound < -0.05" % worst


def test_braids_rescue_the_unpredictable_workloads(by_name):
    # the blackscholes story; measured 0.692 and 0.731
    for name in ("blackscholes", "bodytrack"):
        assert by_name[name][4] > 0.3, "%s braid %.3f, bound > 0.3" % (
            name, by_name[name][4])


def test_braids_rarely_lose_to_the_path_oracle(rows):
    # ④ paper: one (sar-pfa-interp1); measured one (175.vpr)
    worse = [n for n, po, _, _, br in rows if br < po - 0.02]
    assert len(worse) <= 3, "%d braid losses %s, bound <= 3" % (
        len(worse), worse)


def test_a_handful_of_workloads_degrade_for_paths(rows):
    # paper: five; measured 8
    degraders = [r[0] for r in rows if r[1] < -0.005]
    assert 2 <= len(degraders) <= 10, "%d degraders %s, bound 2-10" % (
        len(degraders), degraders)
