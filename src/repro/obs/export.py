"""Registry exporters: JSON, Prometheus text format, human views.

Every exporter accepts a :class:`~repro.obs.metrics.MetricsRegistry`, a
plain snapshot dict (what workers ship between processes), or ``None``
for the process-global registry.  Output ordering is fully deterministic
— metric families by name, series by sorted labels — so two registries
holding the same values always render byte-identically.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional

from .metrics import MetricsRegistry


def _coerce(source=None) -> dict:
    """Normalise any accepted source into a snapshot dict."""
    if source is None:
        from . import registry

        return registry().snapshot()
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    if isinstance(source, dict):
        return source
    raise TypeError("cannot export %r" % type(source).__name__)


# -- JSON -------------------------------------------------------------------


def to_json(source=None, indent: Optional[int] = 2) -> str:
    """The full registry as deterministic JSON (sorted keys throughout)."""
    return json.dumps(_coerce(source), indent=indent, sort_keys=True)


def semantic_json(source=None, indent: Optional[int] = 2) -> str:
    """Only the semantic metrics, as deterministic JSON.

    Two runs of the same suite — serial, ``jobs=N`` or cache-served — must
    produce byte-identical output here; that is the determinism contract
    the obs tests enforce.
    """
    snap = _coerce(source)
    semantic = {
        "metrics": [m for m in snap.get("metrics", ()) if m.get("semantic")],
        "ledger": snap.get("ledger", {"entries": []}),
    }
    return json.dumps(semantic, indent=indent, sort_keys=True)


# -- Prometheus text format -------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_value_escape(value) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote and line feed."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _prom_labels(labels: dict) -> str:
    parts = [
        '%s="%s"' % (_LABEL_RE.sub("_", k), _prom_value_escape(v))
        for k, v in sorted(labels.items())
    ]
    return "{%s}" % ",".join(parts) if parts else ""


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _series_sort_key(series) -> list:
    return sorted((str(k), str(v))
                  for k, v in (series.get("labels") or {}).items())


def to_prometheus(source=None) -> str:
    """Prometheus exposition text (``# HELP`` / ``# TYPE`` + samples).

    Families are emitted sorted by metric name and series sorted by
    their label sets *here*, independent of snapshot ordering — raw
    worker snapshots arrive in registration order, and two scrapes of
    the same values must be byte-identical regardless of which order
    the registering code ran in.
    """
    snap = _coerce(source)
    lines: List[str] = []
    families = sorted(snap.get("metrics", ()),
                      key=lambda m: str(m.get("name", "")))
    for metric in families:
        name = _prom_name(metric["name"])
        if metric.get("help"):
            lines.append("# HELP %s %s" % (name, metric["help"]))
        lines.append("# TYPE %s %s" % (name, metric["kind"]))
        for series in sorted(metric.get("series", ()), key=_series_sort_key):
            labels = series.get("labels", {})
            lines.append(
                "%s%s %s"
                % (name, _prom_labels(labels), _format_value(series["value"]))
            )
    return "\n".join(lines) + ("\n" if lines else "")


#: alias of ``to_prometheus``, named like the ``render_*`` views
render_prometheus = to_prometheus


# -- human views ------------------------------------------------------------


def render_metrics(source=None) -> str:
    """Aligned human-readable listing, semantic metrics marked with ``*``."""
    snap = _coerce(source)
    rows: List[tuple] = []
    for metric in snap.get("metrics", ()):
        marker = "*" if metric.get("semantic") else " "
        for series in metric.get("series", ()):
            labels = series.get("labels", {})
            label_text = ",".join(
                "%s=%s" % (k, v) for k, v in sorted(labels.items())
            )
            value = series["value"]
            if isinstance(value, float):
                value = "%.6g" % value
            rows.append(
                ("%s%s" % (marker, metric["name"]), metric["kind"],
                 label_text, str(value))
            )
    if not rows:
        return "(no metrics recorded — is instrumentation enabled?)"
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = [
        "%-*s  %-*s  %-*s  %s"
        % (widths[0], r[0], widths[1], r[1], widths[2], r[2], r[3])
        for r in rows
    ]
    lines.append("")
    lines.append("* = semantic (deterministic across serial/parallel/cached runs)")
    return "\n".join(lines)


def render_trace(source=None) -> str:
    """The span tree as an indented listing with wall-clock durations."""
    snap = _coerce(source)
    lines: List[str] = []

    def _render(node: dict, depth: int) -> None:
        label_text = ",".join(
            "%s=%s" % (k, v) for k, v in sorted(node.get("labels", {}).items())
        )
        title = node.get("name", "?")
        if label_text:
            title += " (%s)" % label_text
        lines.append(
            "%-60s %9.3f ms"
            % ("  " * depth + title, node.get("duration", 0.0) * 1e3)
        )
        for child in node.get("children", ()):
            _render(child, depth + 1)

    for root in snap.get("spans", ()):
        _render(root, 0)
    if not lines:
        return "(no spans recorded — is instrumentation enabled?)"
    return "\n".join(lines)


__all__ = [
    "render_metrics",
    "render_prometheus",
    "render_trace",
    "semantic_json",
    "to_json",
    "to_prometheus",
]
