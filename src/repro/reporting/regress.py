"""Attribution tables and metric-snapshot regression diffing.

Two consumers of the attribution ledger live here:

* :func:`render_attribution` — the paper-style decomposition tables
  (the Fig. 9/10 analogue): for each workload × strategy, where the
  simulated cycles and picojoules went, grouped into readable columns
  from the closed charge-class contract in :mod:`repro.obs.ledger`.
* :func:`diff_snapshots` / ``repro report diff`` — compare two metric
  snapshots (obs registry JSON, ``semantic_json`` output, or
  ``BENCH_*.json`` files) with per-metric relative thresholds and a
  machine-readable regression verdict.  CI's perf-smoke job gates on
  the nonzero exit instead of eyeballing artifacts.

Regression direction is inferred from the metric name (``*seconds*``
and ``*cycles*`` regress upward, ``*speedup*`` and ``*coverage*``
regress downward); metrics matching neither pattern set are flagged on
any move beyond the threshold, which fails safe for new metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

from .tables import format_table

#: metric-name patterns where a larger value is worse
LOWER_IS_BETTER_PATTERNS: Tuple[str, ...] = (
    "*seconds*", "*cycles*", "*energy*", "*_pj*", "*failures*",
    "*misses*", "*overhead*", "*retries*", "*quarantined*",
)

#: metric-name patterns where a smaller value is worse
HIGHER_IS_BETTER_PATTERNS: Tuple[str, ...] = (
    "*speedup*", "*improvement*", "*reduction*", "*coverage*",
    "*precision*", "*utilization*", "*ipc*", "*ilp*", "*hits*",
)


def metric_direction(name: str) -> str:
    """"lower" | "higher" | "unknown" — which way ``name`` regresses."""
    low = name.lower()
    for pattern in LOWER_IS_BETTER_PATTERNS:
        if fnmatch(low, pattern):
            return "lower"
    for pattern in HIGHER_IS_BETTER_PATTERNS:
        if fnmatch(low, pattern):
            return "higher"
    return "unknown"


@dataclass
class Thresholds:
    """Per-metric relative tolerances for :func:`diff_snapshots`.

    ``default``    relative change tolerated by every metric;
    ``overrides``  first-match (pattern, fraction) pairs consulted
                   before the default;
    ``ignore``     patterns whose metrics are reported but never gate.
    """

    default: float = 0.05
    overrides: List[Tuple[str, float]] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)

    def for_metric(self, name: str) -> Optional[float]:
        """The tolerance for ``name``, or ``None`` when it is ignored."""
        low = name.lower()
        for pattern in self.ignore:
            if fnmatch(low, pattern.lower()):
                return None
        for pattern, fraction in self.overrides:
            if fnmatch(low, pattern.lower()):
                return fraction
        return self.default


# -- snapshot flattening -----------------------------------------------------


def _labels_text(labels: Dict[str, object]) -> str:
    return ",".join("%s=%s" % (k, v) for k, v in sorted(labels.items()))


def _flatten_obs(data: dict, out: Dict[str, float]) -> None:
    """Flatten an obs registry snapshot: semantic metric series plus the
    attribution ledger.  Operational metrics and spans are skipped — they
    legitimately vary run to run and must never gate CI."""
    for metric in data.get("metrics", ()):
        if not metric.get("semantic"):
            continue
        name = metric.get("name", "?")
        for series in metric.get("series", ()):
            key = "%s{%s}" % (name, _labels_text(series.get("labels", {})))
            value = series.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = float(value)
    for entry in data.get("ledger", {}).get("entries", ()):
        key = "ledger{workload=%s,strategy=%s,region=%s,charge=%s}" % (
            entry.get("workload", "?"), entry.get("strategy", "?"),
            entry.get("region", "?"), entry.get("charge", "?"),
        )
        out[key + ".cycles"] = float(entry.get("cycles", 0.0))
        out[key + ".energy_pj"] = float(entry.get("energy_pj", 0.0))


def _flatten_generic(node, prefix: str, out: Dict[str, float]) -> None:
    """Flatten arbitrary JSON (``BENCH_*.json``): dicts become dotted
    paths, list items keyed by a ``workload`` field become
    ``prefix{workload}``, other list items are indexed."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
        return
    if isinstance(node, dict):
        for key in sorted(node):
            sub = "%s.%s" % (prefix, key) if prefix else str(key)
            _flatten_generic(node[key], sub, out)
        return
    if isinstance(node, list):
        for i, item in enumerate(node):
            if isinstance(item, dict) and "workload" in item:
                sub = "%s{%s}" % (prefix, item["workload"])
                rest = {k: v for k, v in item.items() if k != "workload"}
                _flatten_generic(rest, sub, out)
            else:
                _flatten_generic(item, "%s[%d]" % (prefix, i), out)


def flatten_snapshot(data: dict) -> Dict[str, float]:
    """Flat ``{metric name: value}`` view of any supported snapshot.

    Obs registry snapshots (a ``metrics`` list of series dicts) keep
    only their *semantic* content; anything else (``BENCH_*.json``)
    flattens generically.
    """
    out: Dict[str, float] = {}
    metrics = data.get("metrics") if isinstance(data, dict) else None
    if isinstance(metrics, list) and all(
        isinstance(m, dict) and "series" in m for m in metrics
    ):
        _flatten_obs(data, out)
    else:
        _flatten_generic(data, "", out)
    return out


def load_snapshot(path: str) -> Dict[str, float]:
    """Load + flatten a snapshot file."""
    with open(path) as fh:
        return flatten_snapshot(json.load(fh))


# -- diffing ----------------------------------------------------------------


@dataclass
class MetricDelta:
    """One metric's movement between two snapshots."""

    name: str
    old: Optional[float]
    new: Optional[float]
    rel_change: Optional[float]  # (new-old)/|old|; None when undefined
    status: str  # ok | regression | improvement | added | removed | ignored


@dataclass
class DiffResult:
    """Outcome of diffing two snapshots."""

    deltas: List[MetricDelta]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _classify(name: str, old: float, new: float,
              threshold: float) -> Tuple[Optional[float], str]:
    if old == new:
        return 0.0, "ok"
    if old == 0.0:
        # relative change undefined: any appearance of a non-zero value
        # moves by convention "infinitely"; gate on direction only
        rel = None
        moved_up = new > 0
    else:
        rel = (new - old) / abs(old)
        moved_up = rel > 0
    magnitude = abs(rel) if rel is not None else float("inf")
    if magnitude <= threshold:
        return rel, "ok"
    direction = metric_direction(name)
    if direction == "lower":
        return rel, "regression" if moved_up else "improvement"
    if direction == "higher":
        return rel, "improvement" if moved_up else "regression"
    return rel, "regression"  # unknown direction: fail safe on any move


def diff_snapshots(
    old: Dict[str, float],
    new: Dict[str, float],
    thresholds: Optional[Thresholds] = None,
) -> DiffResult:
    """Compare two flat snapshots under per-metric thresholds.

    Metrics present on only one side are reported as ``added`` /
    ``removed`` but never gate (new instrumentation must not fail CI);
    a metric's *movement* beyond its threshold in the regressing
    direction does.
    """
    thresholds = thresholds or Thresholds()
    deltas: List[MetricDelta] = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        threshold = thresholds.for_metric(name)
        if threshold is None:
            status = "ignored"
            rel = None
            if a is not None and b is not None and a != 0:
                rel = (b - a) / abs(a)
            deltas.append(MetricDelta(name, a, b, rel, status))
            continue
        if a is None:
            deltas.append(MetricDelta(name, None, b, None, "added"))
            continue
        if b is None:
            deltas.append(MetricDelta(name, a, None, None, "removed"))
            continue
        rel, status = _classify(name, a, b, threshold)
        deltas.append(MetricDelta(name, a, b, rel, status))
    return DiffResult(deltas=deltas)


def render_diff(result: DiffResult, verbose: bool = False) -> str:
    """Human summary of a diff: regressions always, the rest on demand."""
    rows = []
    shown = result.deltas if verbose else [
        d for d in result.deltas
        if d.status in ("regression", "improvement", "added", "removed")
    ]
    for d in shown:
        rows.append((
            d.status,
            d.name,
            "-" if d.old is None else "%.6g" % d.old,
            "-" if d.new is None else "%.6g" % d.new,
            "-" if d.rel_change is None else "%+.2f%%" % (d.rel_change * 100),
        ))
    lines = []
    if rows:
        lines.append(format_table(
            ["status", "metric", "old", "new", "change"], rows))
    n_reg = len(result.regressions)
    compared = sum(
        1 for d in result.deltas if d.status not in ("added", "removed")
    )
    lines.append("")
    lines.append(
        "%d metrics compared, %d regression%s"
        % (compared, n_reg, "" if n_reg == 1 else "s")
    )
    return "\n".join(lines)


# -- attribution tables -----------------------------------------------------

#: display column -> charge classes folded into it (paper-style grouping)
ATTRIBUTION_COLUMNS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("compute", ("frame.compute", "host.compute")),
    ("guard", ("frame.guard",)),
    ("psi", ("frame.psi",)),
    ("mem", ("frame.mem", "host.mem.l1", "host.mem.l2", "host.mem.dram")),
    ("xfer", ("transfer",)),
    ("abort", ("abort.frame", "abort.rollback", "abort.reexec")),
    ("host", ("host.fallback",)),
    ("reconfig", ("reconfig",)),
)


def _attribution_rows(ledger, workload: Optional[str], index: int):
    rows = []
    for w in ledger.workloads():
        if workload is not None and w != workload:
            continue
        for strategy in ledger.strategies(w):
            totals = ledger.class_totals(w, strategy)
            row: List[object] = [w, strategy]
            for _col, classes in ATTRIBUTION_COLUMNS:
                row.append(sum(
                    totals[c][index] for c in classes if c in totals
                ))
            row.append(
                ledger.cycle_total(w, strategy) if index == 0
                else ledger.energy_total(w, strategy)
            )
            rows.append(tuple(row))
    return rows


def render_attribution(ledger, workload: Optional[str] = None) -> str:
    """Cycle and energy decomposition tables from an attribution ledger.

    One row per (workload, strategy) — including the ``host`` baseline —
    with the charge classes grouped into the paper's decomposition
    vocabulary.  Row totals equal the simulator's reported totals
    exactly (the ledger conservation contract).
    """
    if not ledger:
        return ("(no attribution recorded — run with metrics enabled, "
                "e.g. `repro report table <workload>`)")
    headers = (["workload", "strategy"]
               + [col for col, _classes in ATTRIBUTION_COLUMNS]
               + ["total"])
    cycles = format_table(
        headers, _attribution_rows(ledger, workload, 0),
        title="Simulated-cycle attribution",
    )
    energy = format_table(
        headers, _attribution_rows(ledger, workload, 1),
        title="Energy attribution (pJ)",
    )
    return cycles + "\n\n" + energy


__all__ = [
    "ATTRIBUTION_COLUMNS",
    "DiffResult",
    "HIGHER_IS_BETTER_PATTERNS",
    "LOWER_IS_BETTER_PATTERNS",
    "MetricDelta",
    "Thresholds",
    "diff_snapshots",
    "flatten_snapshot",
    "load_snapshot",
    "metric_direction",
    "render_attribution",
    "render_diff",
]
