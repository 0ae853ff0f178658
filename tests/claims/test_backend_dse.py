"""Backend plug-n-play (Fig. 1): the Aladdin-style sweep of a braid frame
yields a latency/power Pareto frontier."""

from __future__ import annotations

from benchmarks.bench_backend_dse import TARGETS, _compute


def test_every_target_has_a_nontrivial_frontier(analyses):
    rows = _compute(analyses)
    for name in TARGETS:
        points = [r for r in rows if r[0] == name]
        assert len(points) >= 2, name
        lats = [p[4] for p in points]
        pows = [p[5] for p in points]
        assert lats == sorted(lats)
        assert pows == sorted(pows, reverse=True)
