"""Unified observability layer: metrics, spans and exporters.

Zero-dependency instrumentation shared by the interpreter, profiler,
artifact cache, pipeline and simulators.  Off by default and cheap when
off: every module-level helper starts with a single flag test, so
instrumentation sites cost one function call on the no-op path (and
sites in genuinely hot loops publish *aggregates* at run boundaries
instead of per-event samples).

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("analyse", workload="470.lbm"):
        ...
    obs.counter("interp.instructions_retired", 12345, workload="470.lbm")
    print(obs.export.render_metrics())

Two kinds of data come out:

* **semantic** metrics — derived from pipeline result records, identical
  across serial / ``jobs=N`` / cache-served runs of the same suite;
* **operational** metrics and spans — wall times, cache hits, worker
  ids: how the run happened, free to vary.

Worker processes publish into a private scoped registry
(:func:`scoped`) and ship its :func:`snapshot` back through the pool;
the parent folds it in with :func:`merge`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from . import events, export
from .ledger import CHARGE_CLASSES, AttributionLedger
from .logconfig import logging_setup
from .metrics import (
    Counter,
    Gauge,
    Metric,
    MetricTypeError,
    MetricsRegistry,
    label_key,
)
from .spans import NOOP_SPAN, SpanContext, SpanNode

_ENABLED = False
_REGISTRY = MetricsRegistry()
# Per-thread registry overlay: inside :func:`scoped` a thread publishes
# into its own private registry (pool workers run each task this way)
# while every other thread keeps seeing the global one.
_TLS = threading.local()


# -- switches ---------------------------------------------------------------


def enabled() -> bool:
    """Is instrumentation currently collecting?"""
    return _ENABLED


def enable(reset: bool = False) -> None:
    """Turn instrumentation on (optionally clearing prior data)."""
    global _ENABLED
    if reset:
        _REGISTRY.clear()
    _ENABLED = True


def disable() -> None:
    """Turn instrumentation off; collected data stays readable."""
    global _ENABLED
    _ENABLED = False


# -- registry access --------------------------------------------------------


def registry() -> MetricsRegistry:
    """The active registry: this thread's :func:`scoped` registry when one
    is in effect, the process-global registry otherwise."""
    reg = getattr(_TLS, "registry", None)
    return _REGISTRY if reg is None else reg


def ledger() -> AttributionLedger:
    """The active registry's attribution ledger."""
    return registry().ledger


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, reg
    return old


def snapshot() -> dict:
    """Plain-dict image of the active registry (picklable, JSON-able)."""
    return registry().snapshot()


def merge(snap: dict) -> None:
    """Fold a worker's registry snapshot into the active registry."""
    registry().merge_snapshot(snap)


@contextmanager
def scoped(collect: bool = True):
    """Run against a fresh private registry, restoring state afterwards.

    Yields the private :class:`MetricsRegistry`.  Used by pool workers:
    whatever the worker inherited is set aside, the task publishes into
    a clean registry, and the caller snapshots it for the trip back to
    the parent.  The swap is *thread-local*, so a scoped task never
    disturbs what other threads see (the enable flag stays global —
    workers only collect when the parent already does, so toggling it
    is idempotent across threads).
    """
    global _ENABLED
    fresh = MetricsRegistry()
    old_registry = getattr(_TLS, "registry", None)
    _TLS.registry = fresh
    old_enabled = _ENABLED
    _ENABLED = collect
    try:
        yield fresh
    finally:
        _ENABLED = old_enabled
        _TLS.registry = old_registry


# -- publication helpers ----------------------------------------------------


def counter(name: str, value: float = 1, semantic: bool = False,
            help: str = "", **labels) -> None:
    """Increment a counter series (no-op while disabled)."""
    if not _ENABLED:
        return
    registry().counter(name, help=help, semantic=semantic).inc(value, **labels)


def gauge(name: str, value: float, semantic: bool = False,
          help: str = "", **labels) -> None:
    """Set a gauge series (no-op while disabled)."""
    if not _ENABLED:
        return
    registry().gauge(name, help=help, semantic=semantic).set(value, **labels)


def span(name: str, **labels):
    """Context manager timing one named stretch of work.

    Returns a shared no-op object while disabled, so disabled spans cost
    one flag test and no allocation.
    """
    if not _ENABLED:
        return NOOP_SPAN
    return SpanContext(registry(), name, labels)


__all__ = [
    "AttributionLedger",
    "CHARGE_CLASSES",
    "Counter",
    "Gauge",
    "Metric",
    "MetricTypeError",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SpanContext",
    "SpanNode",
    "counter",
    "disable",
    "enable",
    "enabled",
    "events",
    "export",
    "gauge",
    "label_key",
    "ledger",
    "logging_setup",
    "merge",
    "registry",
    "scoped",
    "set_registry",
    "snapshot",
    "span",
]
