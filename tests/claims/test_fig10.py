"""Fig. 10 — net energy reduction for Braid offload (§VI).

Rows are ``(workload, braid coverage, energy reduction, flavor)``, both
fractions.  Paper headline: 20% mean reduction, roughly in proportion to
coverage."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.bench_fig10 import _compute


@pytest.fixture(scope="module")
def rows(evaluations):
    return _compute(evaluations)


def test_energy_reduction_mean_is_double_digit(rows):
    # measured 0.329
    mean_e = statistics.mean(r[2] for r in rows)
    assert mean_e > 0.15, "mean energy reduction %.3f, bound > 0.15" % mean_e


def test_lowest_coverage_saves_at_most_the_mean(rows):
    # measured: freqmine, 0.127 against a mean of 0.329
    mean_e = statistics.mean(r[2] for r in rows)
    low_cov = min(rows, key=lambda r: r[1])
    assert low_cov[2] <= mean_e, "%s saves %.3f, mean %.3f" % (
        low_cov[0], low_cov[2], mean_e)


def test_nothing_regresses_catastrophically(rows):
    # measured minimum 0.127
    worst = min(rows, key=lambda r: r[2])
    assert worst[2] > -0.25, "%s energy reduction %.3f, bound > -0.25" % (
        worst[0], worst[2])


def test_energy_reduction_tracks_coverage(rows):
    # measured Pearson correlation 0.496
    covs = [r[1] for r in rows]
    ens = [r[2] for r in rows]
    mc, me = statistics.mean(covs), statistics.mean(ens)
    cov_var = sum((c - mc) ** 2 for c in covs)
    en_var = sum((e - me) ** 2 for e in ens)
    assert cov_var > 1e-12 and en_var > 1e-12, "no spread to correlate"
    corr = sum((c - mc) * (e - me) for c, e in zip(covs, ens)) / (
        cov_var ** 0.5 * en_var ** 0.5)
    assert corr > 0.2, "energy-coverage correlation %.3f, bound > 0.2" % corr
