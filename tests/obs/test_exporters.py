"""Exporter output: deterministic JSON, Prometheus text, human views."""

import json

from repro.obs import export
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("interp.instructions_retired",
                    help="dynamic instructions", semantic=True)
    c.inc(1200, workload="dwt53")
    c.inc(800, workload="470.lbm")
    reg.gauge("pipeline.evaluate_seconds",
              help="wall time").set(0.25, workload="dwt53")
    return reg


GOLDEN_PROM = """\
# HELP interp_instructions_retired dynamic instructions
# TYPE interp_instructions_retired counter
interp_instructions_retired{workload="470.lbm"} 800
interp_instructions_retired{workload="dwt53"} 1200
# HELP pipeline_evaluate_seconds wall time
# TYPE pipeline_evaluate_seconds gauge
pipeline_evaluate_seconds{workload="dwt53"} 0.25
"""


def test_prometheus_golden_output():
    assert export.to_prometheus(_sample_registry()) == GOLDEN_PROM


def test_json_is_deterministic_and_parseable():
    a = export.to_json(_sample_registry())
    b = export.to_json(_sample_registry())
    assert a == b
    data = json.loads(a)
    names = [m["name"] for m in data["metrics"]]
    assert names == sorted(names)


def test_semantic_json_filters_operational_metrics():
    data = json.loads(export.semantic_json(_sample_registry()))
    assert [m["name"] for m in data["metrics"]] == [
        "interp.instructions_retired"
    ]


def test_exporters_accept_registry_snapshot_and_none():
    reg = _sample_registry()
    assert export.to_json(reg) == export.to_json(reg.snapshot())

    from repro import obs

    old = obs.set_registry(reg)
    try:
        assert export.to_json(None) == export.to_json(reg)
    finally:
        obs.set_registry(old)


def test_render_metrics_marks_semantic_and_aligns():
    text = export.render_metrics(_sample_registry())
    assert "*interp.instructions_retired" in text
    assert " pipeline.evaluate_seconds" in text
    assert "* = semantic" in text


def test_render_metrics_empty_registry_hint():
    text = export.render_metrics(MetricsRegistry())
    assert "no metrics recorded" in text


def test_prometheus_and_json_handle_empty_registry():
    empty = MetricsRegistry()
    assert export.to_prometheus(empty) == ""
    data = json.loads(export.to_json(empty))
    assert data["metrics"] == []
    assert json.loads(export.semantic_json(empty))["metrics"] == []


def test_prometheus_label_value_escaping():
    reg = MetricsRegistry()
    c = reg.counter("paths", semantic=True)
    # the three characters the exposition format requires escaping
    c.inc(1, workload='back\\slash and "quote"\nnewline')
    text = export.to_prometheus(reg)
    (sample,) = [l for l in text.splitlines() if l.startswith("paths{")]
    assert r"back\\slash" in sample
    assert r"\"quote\"" in sample
    assert r"\nnewline" in sample
    # the raw control characters must not survive into the sample line
    assert "\n" not in sample
    # every quote inside the value is escaped: only the two label-value
    # delimiters remain unescaped
    assert sample.count('"') == sample.count('\\"') + 2


def test_prometheus_escaping_roundtrip_values():
    # each escape individually, to pin the exact substitutions
    cases = {
        "a\\b": r"a\\b",
        'a"b': r"a\"b",
        "a\nb": r"a\nb",
    }
    reg = MetricsRegistry()
    c = reg.counter("m")
    for i, raw in enumerate(sorted(cases)):
        c.inc(1, v=raw, i=str(i))
    text = export.to_prometheus(reg)
    for raw in sorted(cases):
        assert 'v="%s"' % cases[raw] in text


def test_render_trace_indents_children():
    reg = MetricsRegistry()
    with_span = reg.open_span("outer", {"workload": "x"})
    inner = reg.open_span("inner", {})
    reg.close_span(inner)
    reg.close_span(with_span)
    text = export.render_trace(reg)
    lines = text.splitlines()
    assert lines[0].startswith("outer (workload=x)")
    assert lines[1].startswith("  inner")
    assert "ms" in lines[0]


def test_prometheus_output_is_order_independent():
    """Registration order must never leak into the exposition text.

    Two registries record the same facts with families and label sets
    interleaved in opposite orders; a scrape of either must be
    byte-identical — sorted families, sorted series within a family.
    """

    def _forward():
        reg = MetricsRegistry()
        a = reg.counter("zz.last", help="last family")
        b = reg.counter("aa.first", help="first family")
        a.inc(1, workload="dwt53", strategy="braid")
        a.inc(2, workload="164.gzip", strategy="path")
        b.inc(3, pool="thread")
        b.inc(4, pool="process")
        reg.gauge("mm.middle").set(0.5, shard="9")
        reg.gauge("mm.middle").set(0.25, shard="10")
        return reg

    def _reversed():
        reg = MetricsRegistry()
        reg.gauge("mm.middle").set(0.25, shard="10")
        reg.gauge("mm.middle").set(0.5, shard="9")
        b = reg.counter("aa.first", help="first family")
        b.inc(4, pool="process")
        b.inc(3, pool="thread")
        a = reg.counter("zz.last", help="last family")
        a.inc(2, workload="164.gzip", strategy="path")
        a.inc(1, workload="dwt53", strategy="braid")
        return reg

    forward = export.to_prometheus(_forward())
    assert forward == export.to_prometheus(_reversed())
    lines = forward.splitlines()
    families = [l.split(" ")[2] for l in lines if l.startswith("# TYPE")]
    assert families == sorted(families)
    series = [l for l in lines if l.startswith("aa_first{")]
    assert series == sorted(series)


def test_prometheus_ordering_survives_snapshot_round_trip():
    """Raw worker snapshots arrive in whatever order the worker
    registered things; the exporter, not the snapshot, owns ordering."""
    reg = MetricsRegistry()
    c = reg.counter("fold.series", help="h")
    c.inc(1, w="b")
    c.inc(1, w="a")
    snap = reg.snapshot()
    # scramble the snapshot's own ordering to model a hostile source
    snap["metrics"][0]["series"].reverse()
    text = export.to_prometheus(snap)
    idx_a = text.index('w="a"')
    idx_b = text.index('w="b"')
    assert idx_a < idx_b


def test_render_prometheus_alias():
    assert export.render_prometheus is export.to_prometheus
