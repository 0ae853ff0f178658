"""Registry semantics: labels, kinds, snapshots, merges."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricTypeError,
    MetricsRegistry,
    label_key,
)


def test_label_key_is_order_insensitive_and_stringifies():
    assert label_key({"b": 2, "a": "x"}) == label_key({"a": "x", "b": "2"})


def test_counter_accumulates_per_labelset():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    c.inc(workload="a")
    c.inc(2, workload="a")
    c.inc(workload="b")
    assert c.value(workload="a") == 3
    assert c.value(workload="b") == 1
    assert c.value(workload="missing") == 0


def test_series_order_is_deterministic():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    c.inc(workload="z")
    c.inc(workload="a")
    assert [dict(k)["workload"] for k, _v in c.series()] == ["a", "z"]


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(3, run="x")
    g.set(7, run="x")
    assert g.value(run="x") == 7


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(MetricTypeError):
        reg.gauge("x")


def test_get_or_create_returns_same_instance():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_snapshot_merge_adds_counters_and_overwrites_gauges():
    a = MetricsRegistry()
    a.counter("n").inc(2, k="v")
    a.gauge("g").set(4)

    b = MetricsRegistry()
    b.counter("n").inc(3, k="v")
    b.counter("n").inc(1, k="w")
    b.gauge("g").set(9)

    a.merge_snapshot(b.snapshot())
    assert a.counter("n").value(k="v") == 5
    assert a.counter("n").value(k="w") == 1
    assert a.gauge("g").value() == 9


def test_merge_kind_conflict_raises():
    a = MetricsRegistry()
    a.counter("x").inc()
    b = MetricsRegistry()
    b.gauge("x").set(1)
    with pytest.raises(MetricTypeError):
        a.merge_snapshot(b.snapshot())


def test_snapshot_roundtrip_is_plain_data():
    import json

    reg = MetricsRegistry()
    reg.counter("n", semantic=True).inc(4, k="v")
    reg.gauge("g").set(0.01, k="v")
    snap = reg.snapshot()
    assert json.loads(json.dumps(snap)) == snap

    other = MetricsRegistry()
    other.merge_snapshot(snap)
    assert other.snapshot()["metrics"] == snap["metrics"]


def test_semantic_series_filters_operational_metrics():
    reg = MetricsRegistry()
    reg.counter("real", semantic=True).inc(7)
    reg.counter("noise").inc(1)
    names = {name for name, _labels, _v in reg.semantic_series()}
    assert names == {"real"}


def test_metric_kinds():
    assert Counter.kind == "counter"
    assert Gauge.kind == "gauge"
