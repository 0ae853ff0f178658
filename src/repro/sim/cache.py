"""Set-associative cache models for memory calibration: the host L1 and the
banked NUCA L2.

The caches are trace-driven: :meth:`Cache.access` returns hit or miss and
the replay charges the latency of the level that served the access.  A
:class:`MemorySystem` holds the caches behind one memory port, starting
cold.  The host port is L1 → banked L2 → DRAM; the accelerator port (the
uncore CGRA, §VI) is banked L2 → DRAM.  Each port replays on caches of its
own, so no coherence traffic between the ports is modelled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .config import CacheConfig, MemoryHierarchyConfig


class Cache:
    """A set-associative cache with LRU replacement that allocates on every
    miss.  Loads and stores are alike: no dirty state is kept, since a
    writeback never changes a hit, a miss or a latency."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_bytes = config.line_bytes
        self._n_sets = config.sets
        # each set holds its tags; dict order gives LRU (oldest first)
        self.sets: List[Dict[int, None]] = [dict() for _ in range(self._n_sets)]

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Allocates on miss."""
        line = addr // self._line_bytes
        ways = self.sets[line % self._n_sets]
        tag = line // self._n_sets
        if tag in ways:
            del ways[tag]
            ways[tag] = None  # re-insert as most recent
            return True
        if len(ways) >= self.config.associativity:
            del ways[next(iter(ways))]
        ways[tag] = None
        return False


class BankedL2:
    """The NUCA L2: 8 banks selected by line address (Table V)."""

    def __init__(self, hierarchy: MemoryHierarchyConfig):
        self.hierarchy = hierarchy
        per_bank = self.bank_config(hierarchy)
        self.banks = [Cache(per_bank) for _ in range(hierarchy.l2_banks)]

    @staticmethod
    def bank_config(hierarchy: MemoryHierarchyConfig) -> CacheConfig:
        """One bank's geometry: the L2 capacity split evenly over banks."""
        return CacheConfig(
            size_bytes=hierarchy.l2.size_bytes // hierarchy.l2_banks,
            associativity=hierarchy.l2.associativity,
            line_bytes=hierarchy.l2.line_bytes,
            latency=hierarchy.l2.latency,
        )

    def access(self, addr: int) -> bool:
        line = addr // self.hierarchy.l2.line_bytes
        return self.banks[line % len(self.banks)].access(addr)


class MemorySystem:
    """The caches behind one memory port: host L1 over the banked L2 over
    DRAM.  The accelerator port never touches the L1."""

    def __init__(self, hierarchy: Optional[MemoryHierarchyConfig] = None):
        self.hierarchy = hierarchy or MemoryHierarchyConfig()
        self.l1 = Cache(self.hierarchy.l1)
        self.l2 = BankedL2(self.hierarchy)

    def profile_stream(
        self, stream, port: str = "host"
    ) -> "StreamProfile":
        """Replay an (opcode, address) stream through ``port`` (``"host"``
        or ``"accel"``); returns average latencies and per-level counts."""
        host = port == "host"
        l1_access = self.l1.access
        l2_access = self.l2.access
        loads = [0, 0, 0]
        stores = [0, 0, 0]
        for opcode, addr in stream:
            if host and l1_access(addr):
                level = 0
            elif l2_access(addr):
                level = 1
            else:
                level = 2
            (stores if opcode == "store" else loads)[level] += 1
        return _stream_profile(
            _port_latency(self.hierarchy, port), loads, stores
        )


@dataclass
class StreamProfile:
    """Aggregate result of replaying a memory trace."""

    avg_load_latency: float
    avg_store_latency: float
    loads: int
    stores: int
    level_counts: Dict[str, int] = field(default_factory=dict)


def _port_latency(
    hier: MemoryHierarchyConfig, port: str
) -> Tuple[int, int, int]:
    """Latency of an access served by (l1, l2, dram) from ``port``: the
    host pays the L1 lookup on the way down, the accelerator does not."""
    l2 = (hier.l1.latency if port == "host" else 0) + hier.l2.latency
    return hier.l1.latency, l2, l2 + hier.dram_latency


def _stream_profile(latency: Sequence[int], loads: Sequence[int],
                    stores: Sequence[int]) -> StreamProfile:
    """A :class:`StreamProfile` from per-level (l1, l2, dram) load and
    store counts and the port's latency to each level — integer latency
    sums divided once, so every producer of the same counts returns the
    same floats."""
    n_loads = sum(loads)
    n_stores = sum(stores)
    load_lat = sum(map(mul, latency, loads))
    store_lat = sum(map(mul, latency, stores))
    return StreamProfile(
        avg_load_latency=(load_lat / n_loads) if n_loads else 0.0,
        avg_store_latency=(store_lat / n_stores) if n_stores else 0.0,
        loads=n_loads,
        stores=n_stores,
        level_counts={"l1": loads[0] + stores[0],
                      "l2": loads[1] + stores[1],
                      "dram": loads[2] + stores[2]},
    )


def profile_stream_dual(
    hierarchy: Optional[MemoryHierarchyConfig], stream
) -> Tuple[StreamProfile, StreamProfile]:
    """Profiles of one (opcode, address) stream through a host-port and an
    accel-port :class:`MemorySystem`, both starting cold.

    Field for field what two separate :meth:`MemorySystem.profile_stream`
    replays (``"host"`` then ``"accel"``) return.  Streams whose caches
    never evict — every suite stream on the default hierarchy — take the
    first-touch closed form; the rest take those two replays.
    """
    hier = hierarchy or MemoryHierarchyConfig()
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    profiles = _first_touch_dual(hier, stream)
    if profiles is None:
        profiles = (
            MemorySystem(hier).profile_stream(stream, "host"),
            MemorySystem(hier).profile_stream(stream, "accel"),
        )
    return profiles


def _first_touch_dual(
    hier: MemoryHierarchyConfig, stream
) -> Optional[Tuple[StreamProfile, StreamProfile]]:
    """Closed form of :func:`profile_stream_dual`, or ``None`` when it
    would not be exact.

    Both ports start from empty caches, and an LRU set that sees at most
    ``associativity`` distinct lines over the whole stream never evicts.
    With one line size for both levels, "hit" is then exactly "not the
    first access to this line":

    * host port: L1 hit iff the line was touched before.  L1 misses are
      first touches, so the L2 sees each distinct line once and every L1
      miss goes to DRAM, whatever the L2 geometry.
    * accel port: a banked L2 — hit iff not a first touch, provided no
      (bank, set) sees more distinct lines than the L2 associativity.
    * loads and stores classify alike.

    The per-level counts go through the replay's :func:`_stream_profile`,
    so the averages are bit-identical.
    """
    line_bytes = hier.l1.line_bytes
    if hier.l2.line_bytes != line_bytes:
        return None
    # walked backwards, each line's entry is overwritten last by its
    # first access: distinct lines -> opcode of the first touch
    first_op: Dict[int, str] = {}
    stores = 0
    for opcode, addr in reversed(stream):
        first_op[addr // line_bytes] = opcode
        if opcode == "store":
            stores += 1
    l1_sets = hier.l1.sets
    l1_lines = Counter(line % l1_sets for line in first_op)
    if max(l1_lines.values(), default=0) > hier.l1.associativity:
        return None
    banks = hier.l2_banks
    bank_sets = BankedL2.bank_config(hier).sets
    l2_lines = Counter((line % banks, line % bank_sets) for line in first_op)
    if max(l2_lines.values(), default=0) > hier.l2.associativity:
        return None

    loads = len(stream) - stores
    first_stores = list(first_op.values()).count("store")
    first_loads = len(first_op) - first_stores
    load_hits = loads - first_loads
    store_hits = stores - first_stores
    host = _stream_profile(
        _port_latency(hier, "host"),
        (load_hits, 0, first_loads), (store_hits, 0, first_stores),
    )
    accel = _stream_profile(
        _port_latency(hier, "accel"),
        (0, load_hits, first_loads), (0, store_hits, first_stores),
    )
    return host, accel
