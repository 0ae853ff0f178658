"""Ablations over the offload mechanics (§V guard placement, §IV-A
target expansion): each bench evaluates one profile under two offload
configurations, and the claims read the rows it renders."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.bench_ablation_expansion import _compute as expansion_rows
from benchmarks.bench_ablation_guards import _compute as guard_rows


@pytest.fixture(scope="module")
def guards():
    return guard_rows()


@pytest.fixture(scope="module")
def expansion():
    return expansion_rows()


def test_eager_guard_detection_never_hurts(guards):
    # failures cost no more when detected at the mean guard position;
    # measured deltas 0.68 to 8.72 pp
    assert all(r[4] >= -1e-6 for r in guards)


def test_eager_guard_detection_visibly_matters(guards):
    # somewhere in the set, with failures, eager detection gains > 0.5 pp;
    # measured: up to 8.72 pp
    assert any(r[4] > 0.5 for r in guards if r[1] > 0)


def test_invocation_pipelining_never_hurts(expansion):
    # measured deltas 63 to 151 pp
    assert all(r[3] >= -1e-6 for r in expansion)


def test_loop_heavy_workloads_earn_their_speedup_from_pipelining(expansion):
    # pipelining back-to-back invocations is where the loop-heavy
    # high-ILP workloads earn most of their speedup: mean delta > 10 pp,
    # measured 97.3 pp
    assert statistics.mean(r[3] for r in expansion) > 10.0
