"""Metric primitives and the registry they live in.

Two metric kinds, both labelled:

* :class:`Counter` — monotonically accumulating totals (events, cycles,
  instructions).  Merging registries *adds* counter series.
* :class:`Gauge` — point-in-time values (wall seconds, utilisation).
  Merging keeps the incoming value (last writer wins).

Each metric carries a ``semantic`` flag separating two determinism
classes.  *Semantic* series are derived from pipeline result records and
must be identical whether a run was serial, sharded over a process pool,
or served from the artifact cache — :meth:`MetricsRegistry.semantic_series`
exposes exactly that comparable subset.  *Operational* series (wall
times, artifact-cache hits, worker ids) describe how the run happened and
may legitimately differ between runs.

Registries cross process boundaries as plain-dict :meth:`snapshots
<MetricsRegistry.snapshot>`: a worker serialises its registry, ships it
back through the process pool, and the parent folds it in with
:meth:`MetricsRegistry.merge_snapshot`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .ledger import AttributionLedger
from .spans import SpanNode

#: canonical form of a label set: sorted (key, value-as-str) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable, order-independent form of a label mapping."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricTypeError(TypeError):
    """A metric name was re-registered with a different kind."""


class Metric:
    """Base: a named family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", semantic: bool = False):
        self.name = name
        self.help = help
        self.semantic = semantic
        self.values: Dict[LabelKey, object] = {}

    # -- introspection -----------------------------------------------------

    def series(self) -> List[Tuple[LabelKey, object]]:
        """(labels, value) pairs in deterministic (sorted-label) order."""
        return sorted(self.values.items())

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return "<%s %s: %d series>" % (
            type(self).__name__, self.name, len(self.values)
        )

    # -- merge --------------------------------------------------------------

    def _merge_value(self, key: LabelKey, value) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Accumulating total; merge adds."""

    kind = "counter"

    def inc(self, value: float = 1, **labels) -> None:
        key = label_key(labels)
        self.values[key] = self.values.get(key, 0) + value

    def value(self, **labels) -> float:
        return self.values.get(label_key(labels), 0)

    def _merge_value(self, key: LabelKey, value) -> None:
        self.values[key] = self.values.get(key, 0) + value


class Gauge(Metric):
    """Point-in-time value; merge keeps the incoming (latest) value."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.values[label_key(labels)] = value

    def value(self, **labels) -> Optional[float]:
        return self.values.get(label_key(labels))

    def _merge_value(self, key: LabelKey, value) -> None:
        self.values[key] = value


_KINDS = {cls.kind: cls for cls in (Counter, Gauge)}


class MetricsRegistry:
    """Holds every metric family plus completed span trees.

    One global instance backs the :mod:`repro.obs` module-level helpers;
    worker processes run against scoped private instances and ship
    snapshots back to the parent.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        #: completed root spans, in completion order
        self.span_roots: List[SpanNode] = []
        #: currently-open span stack (innermost last)
        self.span_stack: List[SpanNode] = []
        #: simulated-time attribution (semantic: merges like counters)
        self.ledger = AttributionLedger()

    # -- metric access -----------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, semantic: bool):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, semantic=semantic)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricTypeError(
                "metric %r already registered as %s, requested %s"
                % (name, metric.kind, cls.kind)
            )
        return metric

    def counter(self, name: str, help: str = "", semantic: bool = False) -> Counter:
        return self._get_or_create(Counter, name, help, semantic)

    def gauge(self, name: str, help: str = "", semantic: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, help, semantic)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        """All metric families, sorted by name."""
        return [self._metrics[n] for n in sorted(self._metrics)]

    def clear(self) -> None:
        self._metrics.clear()
        self.span_roots = []
        self.span_stack = []
        self.ledger.clear()

    # -- spans -------------------------------------------------------------

    def open_span(self, name: str, labels: Dict[str, object]) -> SpanNode:
        node = SpanNode(name=name, labels={k: str(v) for k, v in labels.items()})
        self.span_stack.append(node)
        return node

    def close_span(self, node: SpanNode) -> None:
        # pop through to the node, healing the stack even if a span leaked
        while self.span_stack:
            top = self.span_stack.pop()
            if top is node:
                break
        if self.span_stack:
            self.span_stack[-1].children.append(node)
        else:
            self.span_roots.append(node)

    def adopt_spans(self, spans: List[SpanNode]) -> None:
        """Attach foreign (e.g. worker) root spans under the innermost open
        span, or as roots when nothing is open."""
        if self.span_stack:
            self.span_stack[-1].children.extend(spans)
        else:
            self.span_roots.extend(spans)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict, picklable/JSON-able image of the registry."""
        metrics = [
            {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "semantic": metric.semantic,
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.series()
                ],
            }
            for metric in self.metrics()
        ]
        return {
            "metrics": metrics,
            "spans": [node.to_dict() for node in self.span_roots],
            "ledger": self.ledger.snapshot(),
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters add, gauges overwrite,
        span trees attach under the innermost open span."""
        for entry in snapshot.get("metrics", ()):
            cls = _KINDS.get(entry.get("kind"))
            if cls is None:
                continue
            metric = self._get_or_create(
                cls,
                entry["name"],
                entry.get("help", ""),
                bool(entry.get("semantic")),
            )
            for series in entry.get("series", ()):
                metric._merge_value(
                    label_key(series.get("labels", {})), series["value"]
                )
        spans = [
            SpanNode.from_dict(d) for d in snapshot.get("spans", ())
        ]
        if spans:
            self.adopt_spans(spans)
        self.ledger.merge_snapshot(snapshot.get("ledger"))

    # -- determinism contract ----------------------------------------------

    def semantic_series(self) -> List[Tuple[str, LabelKey, object]]:
        """Every series of every semantic metric, fully sorted.

        This is the comparable subset: serial, parallel and cached runs of
        the same suite must produce identical lists.
        """
        out: List[Tuple[str, LabelKey, object]] = []
        for metric in self.metrics():
            if not metric.semantic:
                continue
            for key, value in metric.series():
                out.append((metric.name, key, value))
        return out

    def __repr__(self) -> str:
        return "<MetricsRegistry: %d metrics, %d spans>" % (
            len(self._metrics), len(self.span_roots)
        )


__all__ = [
    "Counter",
    "Gauge",
    "LabelKey",
    "Metric",
    "MetricTypeError",
    "MetricsRegistry",
    "label_key",
]
