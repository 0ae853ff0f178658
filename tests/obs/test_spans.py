"""Span nesting, the disabled fast path, and worker-tree adoption."""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NOOP_SPAN, SpanNode


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.registry().clear()
    yield
    obs.disable()
    obs.registry().clear()


def test_disabled_span_is_shared_noop_singleton():
    assert obs.span("x") is NOOP_SPAN
    assert obs.span("y", any_label=1) is NOOP_SPAN
    with obs.span("x"):
        pass
    assert obs.registry().span_roots == []


def test_nested_spans_form_a_tree():
    obs.enable(reset=True)
    with obs.span("outer", workload="w"):
        with obs.span("inner"):
            pass
        with obs.span("inner2"):
            pass
    roots = obs.registry().span_roots
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "outer" and root.labels == {"workload": "w"}
    assert [c.name for c in root.children] == ["inner", "inner2"]
    assert root.duration >= sum(c.duration for c in root.children)


def test_span_exits_cleanly_on_exception():
    obs.enable(reset=True)
    with pytest.raises(RuntimeError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise RuntimeError("boom")
    reg = obs.registry()
    assert reg.span_stack == []  # nothing leaked open
    assert [r.name for r in reg.span_roots] == ["outer"]
    assert [c.name for c in reg.span_roots[0].children] == ["inner"]


def test_adopt_spans_under_innermost_open_span():
    reg = MetricsRegistry()
    foreign = [SpanNode(name="worker-span")]
    outer = reg.open_span("outer", {})
    reg.adopt_spans(foreign)
    reg.close_span(outer)
    assert [c.name for c in reg.span_roots[0].children] == ["worker-span"]


def test_adopt_spans_with_nothing_open_becomes_root():
    reg = MetricsRegistry()
    reg.adopt_spans([SpanNode(name="w")])
    assert [r.name for r in reg.span_roots] == ["w"]


def test_span_node_roundtrips_through_dict():
    node = SpanNode(
        name="a", labels={"k": "v"}, start=12.25, duration=0.5,
        children=[SpanNode(name="b", start=12.3)],
    )
    again = SpanNode.from_dict(node.to_dict())
    assert again.name == "a" and again.labels == {"k": "v"}
    assert again.duration == 0.5
    # start must survive the round trip: worker-shipped span trees are
    # rebuilt from dicts and the chrome exporter orders events by it
    assert again.start == 12.25
    assert again.children[0].start == 12.3
    assert [c.name for c in again.children] == ["b"]
    assert [n.name for n in node.walk()] == ["a", "b"]


def test_span_node_from_dict_defaults_missing_start_to_zero():
    # dicts serialized before the start field existed still load
    again = SpanNode.from_dict({"name": "old", "duration": 1.0})
    assert again.start == 0.0 and again.duration == 1.0


def test_scoped_registry_isolates_and_restores():
    obs.enable(reset=True)
    obs.counter("outer.count", 1)
    outer_reg = obs.registry()
    with obs.scoped() as inner:
        obs.counter("inner.count", 1)
        assert obs.registry() is inner
        assert inner.get("outer.count") is None
    assert obs.registry() is outer_reg
    assert obs.registry().get("inner.count") is None
    assert obs.registry().counter("outer.count").value() == 1


def test_scoped_collect_false_disables_collection():
    obs.disable()
    with obs.scoped(collect=False) as inner:
        obs.counter("never", 1)
        assert not obs.enabled()
    assert inner.get("never") is None


def test_code_generation_is_one_span_under_profile():
    from repro.interp import Interpreter
    from repro.workloads import get
    from repro.workloads.base import profile_workload

    workload = get("dwt53")
    obs.enable(reset=True)
    profiled = profile_workload(workload, use_cache=False)
    [profile] = [r for r in obs.registry().span_roots if r.name == "profile"]
    compiles = [n for n in profile.walk() if n.name == "interp.compile"]
    assert [n.labels for n in compiles] == [{"function": profiled.function.name}]

    # generated code is kept per interpreter: a second run compiles nothing
    m, fn, args = workload.build()
    interp = Interpreter(m, record=[fn])
    obs.enable(reset=True)
    interp.run(fn, args)
    interp.run(fn, args)
    spans = [n for r in obs.registry().span_roots for n in r.walk()]
    assert [n.name for n in spans] == ["interp.compile"]
