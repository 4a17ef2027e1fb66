"""Tests for the L1 / MSHR / DRAM memory model."""

import pytest

from repro.isa.instructions import MemorySpace, load_op, store_op, int_op
from repro.sim.config import MemoryConfig
from repro.sim.memory import L1Cache, MemorySubsystem


def make_mem(**overrides) -> MemorySubsystem:
    base = dict(l1_sets=4, l1_ways=2, mshr_entries=2, l1_hit_latency=10,
                shared_latency=6, dram_latency=100, dram_jitter=0.0)
    base.update(overrides)
    return MemorySubsystem(MemoryConfig(**base))


class TestL1Cache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            L1Cache(sets=3, ways=2)
        with pytest.raises(ValueError):
            L1Cache(sets=4, ways=0)

    def test_miss_then_hit_with_allocation(self):
        cache = L1Cache(sets=4, ways=2)
        assert not cache.lookup(5, allocate=True)
        assert cache.lookup(5, allocate=False)

    def test_no_allocate_probe_does_not_fill(self):
        cache = L1Cache(sets=4, ways=2)
        assert not cache.lookup(5, allocate=False)
        assert not cache.lookup(5, allocate=False)

    def test_lru_eviction(self):
        cache = L1Cache(sets=1, ways=2)
        cache.lookup(0, allocate=True)
        cache.lookup(1, allocate=True)
        cache.lookup(0, allocate=False)   # touch 0 -> 1 becomes LRU
        cache.lookup(2, allocate=True)    # evicts 1
        assert cache.lookup(0, allocate=False)
        assert not cache.lookup(1, allocate=False)
        assert cache.lookup(2, allocate=False)

    def test_sets_partition_addresses(self):
        cache = L1Cache(sets=4, ways=1)
        cache.lookup(0, allocate=True)
        cache.lookup(1, allocate=True)  # different set, no conflict
        assert cache.lookup(0, allocate=False)
        assert cache.lookup(1, allocate=False)

    def test_flush(self):
        cache = L1Cache(sets=2, ways=2)
        cache.lookup(3, allocate=True)
        cache.flush()
        assert not cache.lookup(3, allocate=False)


class TestAccessPaths:
    def test_rejects_non_memory_instruction(self):
        mem = make_mem()
        with pytest.raises(ValueError, match="not a memory"):
            mem.access(0, 0, int_op(dest=0))

    def test_store_completes_immediately(self):
        mem = make_mem()
        assert mem.access(5, 0, store_op(line_addr=1)) == 5
        assert mem.stats.stores == 1
        assert not mem._pending

    def test_shared_access_fixed_latency(self):
        mem = make_mem()
        ready = mem.access(0, 0, load_op(dest=1, line_addr=0,
                                         mem_space=MemorySpace.SHARED))
        assert ready == 6
        assert mem.stats.shared_accesses == 1

    def test_cold_miss_pays_dram_latency(self):
        mem = make_mem()
        ready = mem.access(0, 0, load_op(dest=1, line_addr=7))
        assert ready == 100
        assert mem.stats.misses == 1

    def test_hit_after_fill(self):
        mem = make_mem()
        mem.access(0, 0, load_op(dest=1, line_addr=7))
        mem.tick(100)  # fill completes
        ready = mem.access(101, 0, load_op(dest=2, line_addr=7))
        assert ready == 111
        assert mem.stats.hits == 1

    def test_no_hit_before_fill_completes(self):
        mem = make_mem()
        mem.access(0, 0, load_op(dest=1, line_addr=7))
        mem.tick(50)  # too early; line still in flight
        # A second access to the same line merges instead of hitting.
        ready = mem.access(50, 1, load_op(dest=2, line_addr=7))
        assert ready == 100
        assert mem.stats.merged_misses == 1


class TestMSHR:
    def test_merge_shares_completion(self):
        mem = make_mem()
        r1 = mem.access(0, 0, load_op(dest=1, line_addr=3))
        r2 = mem.access(10, 1, load_op(dest=2, line_addr=3))
        assert r1 == r2 == 100
        assert len(mem._outstanding) == 1

    def test_full_mshr_rejects(self):
        mem = make_mem(mshr_entries=2)
        mem.access(0, 0, load_op(dest=1, line_addr=1))
        mem.access(0, 1, load_op(dest=1, line_addr=2))
        assert mem.access(0, 2, load_op(dest=1, line_addr=3)) is None
        assert mem.stats.mshr_stalls == 1

    def test_mshr_frees_on_completion(self):
        mem = make_mem(mshr_entries=1)
        mem.access(0, 0, load_op(dest=1, line_addr=1))
        mem.tick(100)
        assert not mem._outstanding
        assert mem.access(101, 0, load_op(dest=1, line_addr=2)) is not None


class TestCompletionDelivery:
    def test_tick_delivers_in_time_order(self):
        mem = make_mem()
        mem.access(0, 0, load_op(dest=1, line_addr=1))           # @100
        mem.access(0, 1, load_op(dest=2, line_addr=1,
                                 mem_space=MemorySpace.SHARED))  # @6
        assert mem.tick(5) == []
        first = mem.tick(6)
        assert first == [1]
        later = mem.tick(100)
        assert later == [0]

    def test_completed_miss_fills_cache(self):
        mem = make_mem()
        mem.access(0, 0, load_op(dest=1, line_addr=9))
        mem.tick(100)
        assert mem.l1.lookup(9, allocate=False)


class TestJitter:
    def test_zero_jitter_is_exact(self):
        mem = make_mem(dram_jitter=0.0)
        assert mem.access(0, 0, load_op(dest=1, line_addr=4)) == 100

    def test_jitter_bounds(self):
        mem = make_mem(dram_jitter=0.3)
        for line in range(64):
            ready = mem.access(0, 0, load_op(dest=1, line_addr=line + 100))
            latency = ready - 0
            assert 70 <= latency <= 130
            mem.tick(10_000)  # drain MSHRs

    def test_jitter_deterministic(self):
        a = make_mem(dram_jitter=0.3)
        b = make_mem(dram_jitter=0.3)
        ra = a.access(17, 0, load_op(dest=1, line_addr=42))
        rb = b.access(17, 0, load_op(dest=1, line_addr=42))
        assert ra == rb

    def test_jitter_varies_across_lines(self):
        mem = make_mem(dram_jitter=0.3)
        latencies = set()
        for line in range(32):
            ready = mem.access(0, 0, load_op(dest=1, line_addr=line))
            latencies.add(ready)
            mem.tick(10_000)
        assert len(latencies) > 5
