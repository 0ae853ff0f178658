"""Shared per-pipeline simulation memo (perf layer 3, second half).

Evaluating one workload runs :meth:`OffloadSimulator.simulate_offload`
three times — host-vs-path-oracle, path-history, braid — and every call
used to pay the full sub-simulation bill again: replay the memory stream
through both cache ports, OOO-simulate every path, and re-schedule the
frame.  None of those depend on the strategy.  :class:`SimulationMemo`
memoizes each expensive sub-simulation per (input object, configuration
slice), so the three strategies share one calibration, one host-cost
table, one schedule pool and one run-length view.

The memo is one in-memory, identity-keyed table with the lifetime of the
simulator that owns it: nothing is persisted, and nothing travels between
processes.  The config slice in each key is deliberately narrow —
calibration keys only the memory hierarchy, path costs only the host core
and the rounded load latency.

Nothing about *how* a value was computed enters a key.  Calibration
takes the first-touch closed form or the exact replay
(:func:`~repro.sim.cache.profile_stream_dual`), and both give the same
bits.  :class:`~repro.sim.offload.EventOracleSimulator` differs from
production only in the census fold, which is never memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..obs import counter as _obs_counter, enabled as _obs_enabled


@dataclass
class Calibration:
    """Full memory-calibration record of one workload (both ports).

    The single public product of
    :meth:`~repro.sim.offload.OffloadSimulator.calibrate`: average load
    latencies plus the per-level access censuses of the replay, so no
    caller ever needs a second stream replay to get the level counts.
    """

    host_load_latency: float
    accel_load_latency: float
    host_levels: Dict[str, int] = field(default_factory=dict)
    accel_levels: Dict[str, int] = field(default_factory=dict)


class SimulationMemo:
    """Get-or-compute table for calibration, path costs and schedules."""

    def __init__(self):
        self._entries: Dict[tuple, Tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, obj, extra, compute):
        """Memoize ``compute()`` by ``(kind, id(obj), extra)``.

        ``kind`` labels the table in the ``simcache`` counters.  A strong
        reference to ``obj`` is kept with the entry so a reused ``id()``
        after garbage collection can never alias a stale value.
        """
        key = (kind, id(obj), extra)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is obj:
            self._note(kind, hit=True)
            return entry[1]
        value = compute()
        self._entries[key] = (obj, value)
        self._note(kind, hit=False)
        return value

    def _note(self, table: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if _obs_enabled():
            _obs_counter(
                "simcache.hits" if hit else "simcache.misses", 1,
                help="simulation-memo lookups served/computed",
                table=table,
            )

    def __repr__(self) -> str:
        return "<SimulationMemo %d entries: %d hits, %d misses>" % (
            len(self._entries), self.hits, self.misses,
        )


__all__ = ["Calibration", "SimulationMemo"]
