"""Set-associative cache models: host L1 and the banked NUCA L2.

The caches are trace-driven: :meth:`Cache.access` returns hit/miss and the
model charges latency accordingly.  :class:`MemorySystem` stacks L1 over the
banked L2 over DRAM for the host, while the accelerator port bypasses the L1
(the CGRA is uncore and cache-coherent at L2, per §VI).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import CacheConfig, MemoryHierarchyConfig


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative, write-back, write-allocate cache with LRU."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets: List[Dict[int, bool]] = [dict() for _ in range(config.sets)]
        # each set maps tag -> dirty flag; dict order gives LRU (oldest first)
        self.stats = CacheStats()

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.sets, line // self.config.sets

    def access(self, addr: int, is_write: bool) -> bool:
        """Touch ``addr``; returns True on hit.  Allocates on miss."""
        index, tag = self._locate(addr)
        ways = self.sets[index]
        if tag in ways:
            self.stats.hits += 1
            dirty = ways.pop(tag) or is_write
            ways[tag] = dirty  # re-insert as most recent
            return True
        self.stats.misses += 1
        if len(ways) >= self.config.associativity:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def contains(self, addr: int) -> bool:
        index, tag = self._locate(addr)
        return tag in self.sets[index]

    def invalidate(self, addr: int) -> bool:
        """Drop the line; returns True if it was dirty (writeback needed)."""
        index, tag = self._locate(addr)
        ways = self.sets[index]
        if tag in ways:
            return ways.pop(tag)
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()


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

    def bank_for(self, addr: int) -> Cache:
        line = addr // self.hierarchy.l2.line_bytes
        return self.banks[line % len(self.banks)]

    def access(self, addr: int, is_write: bool) -> bool:
        return self.bank_for(addr).access(addr, is_write)

    @property
    def stats(self) -> CacheStats:
        total = CacheStats()
        for bank in self.banks:
            total.hits += bank.stats.hits
            total.misses += bank.stats.misses
            total.evictions += bank.stats.evictions
            total.writebacks += bank.stats.writebacks
        return total


@dataclass
class AccessResult:
    """Latency and level of one memory access."""

    latency: int
    level: str  # "l1" | "l2" | "dram"


class MemorySystem:
    """Host L1 backed by the banked L2 backed by DRAM.

    The accelerator port (:meth:`accel_access`) goes straight to the L2 and
    invalidates/downgrades the host L1 copy, the MESI-style behaviour the
    uncore CGRA relies on.
    """

    def __init__(self, hierarchy: Optional[MemoryHierarchyConfig] = None):
        self.hierarchy = hierarchy or MemoryHierarchyConfig()
        self.l1 = Cache(self.hierarchy.l1)
        self.l2 = BankedL2(self.hierarchy)
        self.dram_accesses = 0
        self.coherence_invalidations = 0

    # -- host port ------------------------------------------------------------

    def host_access(self, addr: int, is_write: bool) -> AccessResult:
        if self.l1.access(addr, is_write):
            return AccessResult(self.hierarchy.l1.latency, "l1")
        if self.l2.access(addr, is_write):
            return AccessResult(
                self.hierarchy.l1.latency + self.hierarchy.l2.latency, "l2"
            )
        self.dram_accesses += 1
        return AccessResult(
            self.hierarchy.l1.latency
            + self.hierarchy.l2.latency
            + self.hierarchy.dram_latency,
            "dram",
        )

    # -- accelerator port ----------------------------------------------------------

    def accel_access(self, addr: int, is_write: bool) -> AccessResult:
        extra = 0
        if is_write and self.l1.contains(addr):
            # MESI: the accelerator's write invalidates the host L1 copy
            dirty = self.l1.invalidate(addr)
            self.coherence_invalidations += 1
            if dirty:
                extra += self.hierarchy.l2.latency  # writeback to L2 first
        elif not is_write and self.l1.contains(addr):
            # read snoops a (possibly dirty) host copy: serve via L2
            extra += 2
        if self.l2.access(addr, is_write):
            return AccessResult(self.hierarchy.l2.latency + extra, "l2")
        self.dram_accesses += 1
        return AccessResult(
            self.hierarchy.l2.latency + self.hierarchy.dram_latency + extra,
            "dram",
        )

    # -- bulk profiling -----------------------------------------------------------

    def _compile_port(self, port: str):
        """A replay closure for one port: ``access(addr, is_write) ->
        (latency, level_index)`` with every per-access attribute lookup
        hoisted into locals and no :class:`AccessResult` allocation.

        Level indices are 0=l1, 1=l2, 2=dram.  The closure mutates the
        same cache state as :meth:`host_access`/:meth:`accel_access` in
        the same order, except DRAM/coherence tallies which the caller
        folds back via the returned ``finish()`` hook — final
        :class:`MemorySystem` state is identical either way.
        """
        hier = self.hierarchy
        l1_lat = hier.l1.latency
        l2_lat = hier.l2.latency
        dram_lat = hier.dram_latency
        if port == "host":
            l1_access = self.l1.access
            l2_access = self.l2.access
            host_l12 = l1_lat + l2_lat
            host_dram = host_l12 + dram_lat
            counters = {"dram": 0}

            def access(addr: int, is_write: bool):
                if l1_access(addr, is_write):
                    return l1_lat, 0
                if l2_access(addr, is_write):
                    return host_l12, 1
                counters["dram"] += 1
                return host_dram, 2

            def finish() -> None:
                self.dram_accesses += counters["dram"]
                counters["dram"] = 0

            return access, finish

        l1_contains = self.l1.contains
        l1_invalidate = self.l1.invalidate
        l2_access = self.l2.access
        accel_dram = l2_lat + dram_lat
        counters = {"dram": 0, "inval": 0}

        def access(addr: int, is_write: bool):  # noqa: F811 - port variant
            extra = 0
            if l1_contains(addr):
                if is_write:
                    # MESI: the accelerator's write invalidates the host copy
                    dirty = l1_invalidate(addr)
                    counters["inval"] += 1
                    if dirty:
                        extra += l2_lat  # writeback to L2 first
                else:
                    # read snoops a (possibly dirty) host copy: serve via L2
                    extra += 2
            if l2_access(addr, is_write):
                return l2_lat + extra, 1
            counters["dram"] += 1
            return accel_dram + extra, 2

        def finish() -> None:  # noqa: F811 - port variant
            self.dram_accesses += counters["dram"]
            self.coherence_invalidations += counters["inval"]
            counters["dram"] = counters["inval"] = 0

        return access, finish

    def profile_stream(
        self, stream, port: str = "host"
    ) -> "StreamProfile":
        """Replay an (opcode, address) stream; returns average latencies."""
        access, finish = self._compile_port(port)
        load_lat = load_n = store_lat = store_n = 0
        levels = [0, 0, 0]
        for opcode, addr in stream:
            is_store = opcode == "store"
            lat, level = access(addr, is_store)
            levels[level] += 1
            if is_store:
                store_lat += lat
                store_n += 1
            else:
                load_lat += lat
                load_n += 1
        finish()
        return _stream_profile(load_lat, load_n, store_lat, store_n, levels)


@dataclass
class StreamProfile:
    """Aggregate result of replaying a memory trace."""

    avg_load_latency: float
    avg_store_latency: float
    loads: int
    stores: int
    level_counts: Dict[str, int] = field(default_factory=dict)


def _stream_profile(load_lat: int, loads: int, store_lat: int, stores: int,
                    levels) -> StreamProfile:
    """A :class:`StreamProfile` from integer latency sums and the
    (l1, l2, dram) access counts — one division per average, so every
    producer of the same sums returns the same floats."""
    return StreamProfile(
        avg_load_latency=(load_lat / loads) if loads else 0.0,
        avg_store_latency=(store_lat / stores) if stores else 0.0,
        loads=loads,
        stores=stores,
        level_counts={"l1": levels[0], "l2": levels[1], "dram": levels[2]},
    )


def profile_stream_dual(
    hierarchy: Optional[MemoryHierarchyConfig], stream
) -> Tuple[StreamProfile, StreamProfile]:
    """Profiles of one (opcode, address) stream through a host-port and an
    accel-port :class:`MemorySystem`, both starting cold.

    Field for field what two separate :meth:`MemorySystem.profile_stream`
    replays (``"host"`` then ``"accel"``) return.  Streams whose caches
    never evict — every suite stream on the default hierarchy — take the
    first-touch closed form; the rest take the exact interleaved replay.
    """
    hier = hierarchy or MemoryHierarchyConfig()
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    profiles = _first_touch_dual(hier, stream)
    if profiles is None:
        profiles = _replay_dual(hier, stream)
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
    * accel port: nothing inserts into its L1, so the coherence probe
      never fires and the port is a pure banked L2 — hit iff not a first
      touch, provided no (bank, set) sees more distinct lines than the
      L2 associativity.
    * dirty bits and writebacks change cache statistics only, never hit,
      miss or latency, so loads and stores classify alike.

    The latency sums are integers divided once, as in the replay, so the
    averages are bit-identical.
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
    distinct = len(first_op)
    first_stores = list(first_op.values()).count("store")
    first_loads = distinct - first_stores
    l1_lat = hier.l1.latency
    l2_lat = hier.l2.latency
    miss = l2_lat + hier.dram_latency
    host = _stream_profile(
        first_loads * (l1_lat + miss) + (loads - first_loads) * l1_lat, loads,
        first_stores * (l1_lat + miss) + (stores - first_stores) * l1_lat,
        stores, (len(stream) - distinct, 0, distinct),
    )
    accel = _stream_profile(
        first_loads * miss + (loads - first_loads) * l2_lat, loads,
        first_stores * miss + (stores - first_stores) * l2_lat, stores,
        (0, len(stream) - distinct, distinct),
    )
    return host, accel


def _replay_dual(
    hier: MemoryHierarchyConfig, stream
) -> Tuple[StreamProfile, StreamProfile]:
    """Exact replay of one stream through a host-port and an accel-port
    :class:`MemorySystem` in a single interleaved pass (each port owns
    its own caches, so the walk equals two sequential replays)."""
    h_access, h_finish = MemorySystem(hier)._compile_port("host")
    a_access, a_finish = MemorySystem(hier)._compile_port("accel")
    h_load_lat = h_store_lat = a_load_lat = a_store_lat = 0
    load_n = store_n = 0
    h_levels = [0, 0, 0]
    a_levels = [0, 0, 0]
    for opcode, addr in stream:
        is_store = opcode == "store"
        lat, level = h_access(addr, is_store)
        h_levels[level] += 1
        a_lat, a_level = a_access(addr, is_store)
        a_levels[a_level] += 1
        if is_store:
            h_store_lat += lat
            a_store_lat += a_lat
            store_n += 1
        else:
            h_load_lat += lat
            a_load_lat += a_lat
            load_n += 1
    h_finish()
    a_finish()
    return (
        _stream_profile(h_load_lat, load_n, h_store_lat, store_n, h_levels),
        _stream_profile(a_load_lat, load_n, a_store_lat, store_n, a_levels),
    )
