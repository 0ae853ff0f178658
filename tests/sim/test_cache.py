from repro.sim import Cache, CacheConfig, MemorySystem, MemoryHierarchyConfig


def small_cache(sets=4, assoc=2, line=64):
    return Cache(CacheConfig(size_bytes=sets * assoc * line, associativity=assoc, line_bytes=line))


def test_cold_miss_then_hit():
    c = small_cache()
    assert not c.access(0x1000)
    assert c.access(0x1000)
    assert c.access(0x1010)  # same line


def test_lru_eviction():
    c = small_cache(sets=1, assoc=2)
    a, b, d = 0x0, 0x40, 0x80  # all map to set 0 (1 set)
    c.access(a)
    c.access(b)
    c.access(a)  # a is now MRU
    assert not c.access(d)  # evicts b
    assert c.access(a) and c.access(d)
    assert not c.access(b)


def test_memory_system_levels():
    hier = MemoryHierarchyConfig()
    prof = MemorySystem(hier).profile_stream(
        [("load", 0x4000), ("load", 0x4000)]
    )
    assert prof.level_counts == {"l1": 1, "l2": 0, "dram": 1}
    cold = hier.l1.latency + hier.l2.latency + hier.dram_latency
    assert prof.avg_load_latency == (cold + hier.l1.latency) / 2


def test_memory_system_l2_hit_after_l1_evict():
    hier = MemoryHierarchyConfig(
        l1=CacheConfig(size_bytes=2 * 64, associativity=1, latency=2),
    )
    # 2 sets x 1 way: lines 0, 2 and 4 all map to set 0
    stream = [("load", 0x0), ("load", 0x80), ("load", 0x100), ("load", 0x0)]
    prof = MemorySystem(hier).profile_stream(stream)
    assert prof.level_counts == {"l1": 0, "l2": 1, "dram": 3}


def test_accel_port_bypasses_the_l1():
    hier = MemoryHierarchyConfig()
    ms = MemorySystem(hier)
    prof = ms.profile_stream([("store", 0x2000), ("load", 0x2000)], "accel")
    assert prof.level_counts == {"l1": 0, "l2": 1, "dram": 1}
    assert prof.avg_load_latency == hier.l2.latency
    assert prof.avg_store_latency == hier.l2.latency + hier.dram_latency
    assert not any(ms.l1.sets)


def test_banked_l2_distributes():
    ms = MemorySystem()
    for i in range(16):
        ms.l2.access(i * 64)
    used = sum(1 for b in ms.l2.banks if any(b.sets))
    assert used == 8  # Table V: 8 banks


def test_profile_stream():
    ms = MemorySystem()
    stream = [("load", 0x1000), ("load", 0x1000), ("store", 0x2000)]
    prof = ms.profile_stream(stream)
    assert prof.loads == 2 and prof.stores == 1
    assert prof.avg_load_latency > 0
    assert sum(prof.level_counts.values()) == 3
