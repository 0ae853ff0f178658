"""Simulation memo: each product lives on the object it is computed from.

Evaluating one workload runs :meth:`OffloadSimulator.simulate_offload`
three times — host-vs-path-oracle, path-history, braid — and a design-space
sweep evaluates the same in-memory profiles under many configurations.
None of the expensive sub-simulations reads the strategy, and most read
only a narrow slice of the configuration.  :class:`SimulationMemo` keeps
each one in the ``memo_table`` dict of its input, keyed ``(kind, extra)``
where ``extra`` names exactly the config fields the computation reads:

* ``calibration`` on the :class:`~repro.interp.events.FunctionTrace`,
  keyed by the memory hierarchy;
* ``pathcosts`` on the :class:`~repro.profiling.path_profile.PathProfile`,
  keyed by the host core, the rounded host load latency and the
  amortisation depth;
* ``rle`` on the profile, keyed by nothing;
* ``census`` on the profile, keyed by the frame's target paths, the
  predictor kind and whether invocations pipeline;
* ``schedule`` on the :class:`~repro.frames.frame.Frame`, keyed by the
  CGRA and the scheduler's rounded latencies.

An entry lives exactly as long as its input: every simulator and every
pipeline over the same profile shares it, and releasing the profile
releases its tables.  Tables are never pickled and never compared, so
artifacts keep their bytes.  The memo object itself only counts lookups.

Nothing about *how* a value was computed enters a key.  Calibration
takes the first-touch closed form or the exact replay
(:func:`~repro.sim.cache.profile_stream_dual`), and both give the same
bits.  :class:`~repro.sim.offload.EventOracleSimulator` differs from
production only in the census fold, which it recomputes on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

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
    """Get-or-compute over the inputs' ``memo_table`` dicts, with counters."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, obj, extra, compute):
        """Memoize ``compute()`` in ``obj.memo_table`` under ``(kind, extra)``.

        ``kind`` labels the table in the ``simcache`` counters.
        """
        table = obj.memo_table
        key = (kind, extra)
        if key in table:
            self._note(kind, hit=True)
            return table[key]
        value = table[key] = compute()
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
        return "<SimulationMemo: %d hits, %d misses>" % (self.hits, self.misses)


__all__ = ["Calibration", "SimulationMemo"]
