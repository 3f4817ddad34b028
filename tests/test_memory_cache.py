"""Cache timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.prefetcher import NextLinePrefetcher, StridePrefetcher


def _l1(next_level=None, **kwargs) -> Cache:
    defaults = dict(
        name="L1",
        size=1024,
        assoc=2,
        line_size=64,
        hit_latency=2,
        mshr_entries=4,
        next_level=next_level,
    )
    defaults.update(kwargs)
    return Cache(**defaults)


class TestHitsAndMisses:
    def test_cold_miss_then_hit(self):
        dram = DramModel(latency=100)
        cache = _l1(next_level=dram)
        t_miss = cache.access_line(5, 0)
        assert t_miss >= 100
        t_hit = cache.access_line(5, t_miss)
        assert t_hit - t_miss <= cache.hit_latency + 1
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hit_latency_value(self):
        cache = _l1()
        cache.access_line(1, 0)
        done = cache.access_line(1, 100)
        assert done == 100 + 2

    def test_serial_tag_data_adds_cycle(self):
        parallel = _l1()
        serial = _l1(serial_tag_data=True)
        parallel.access_line(1, 0)
        serial.access_line(1, 0)
        assert serial.access_line(1, 100) == parallel.access_line(1, 100) + 1

    def test_capacity_eviction(self):
        cache = _l1()  # 1KB/2-way/64B = 8 sets, 16 lines
        for line in range(17):
            cache.access_line(line, line * 1000)
        assert cache.resident_lines() <= 16
        assert not cache.contains(0)  # set 0 held lines 0,8 then 16 evicted 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            _l1(size=1000)  # not divisible by assoc*line
        with pytest.raises(ValueError):
            _l1(hit_latency=0)


class TestPorts:
    def test_port_contention_serialises_same_cycle_accesses(self):
        cache = _l1(ports=1)
        cache.access_line(1, 0)
        cache.access_line(2, 0)
        a = cache.access_line(1, 50)
        b = cache.access_line(2, 50)
        assert b == a + 1  # second access waits for the single port

    def test_two_ports_allow_parallel_hits(self):
        cache = _l1(ports=2)
        cache.access_line(1, 0)
        cache.access_line(2, 0)
        a = cache.access_line(1, 50)
        b = cache.access_line(2, 50)
        assert a == b


class TestWriteback:
    def test_dirty_eviction_writes_back(self):
        dram = DramModel(latency=50, page_hit_latency=30)
        cache = _l1(next_level=dram)
        cache.access_line(0, 0, is_write=True)
        # Evict line 0 by filling its set (set 0 of 8): lines 8 and 16.
        cache.access_line(8, 1000)
        cache.access_line(16, 2000)
        assert cache.stats.writebacks == 1

    def test_clean_eviction_is_silent(self):
        dram = DramModel(latency=50, page_hit_latency=30)
        cache = _l1(next_level=dram)
        cache.access_line(0, 0)
        cache.access_line(8, 1000)
        cache.access_line(16, 2000)
        assert cache.stats.writebacks == 0


class TestVictimCache:
    def test_victim_hit_avoids_downstream(self):
        dram = DramModel(latency=100)
        cache = _l1(next_level=dram, victim_entries=4)
        cache.access_line(0, 0)
        cache.access_line(8, 1000)
        cache.access_line(16, 2000)   # line 0 evicted into victim buffer
        before = dram.accesses
        done = cache.access_line(0, 3000)
        assert dram.accesses == before  # served by the victim cache
        assert done - 3000 < 100
        assert cache.stats.victim_hits == 1


class TestMSHR:
    def test_concurrent_misses_limited_by_mshrs(self):
        dram = DramModel(latency=100, bandwidth=16)
        limited = _l1(next_level=dram, mshr_entries=1, size=4096, assoc=4)
        times = [limited.access_line(line, 0) for line in range(4)]
        # With one MSHR the misses serialise (open-page fills ~90cy each).
        assert times[-1] >= 300

        dram2 = DramModel(latency=100, bandwidth=16)
        wide = _l1(next_level=dram2, mshr_entries=8, size=4096, assoc=4)
        times2 = [wide.access_line(line, 0) for line in range(4)]
        assert times2[-1] < times[-1]

    def test_miss_merge_shares_completion(self):
        dram = DramModel(latency=100)
        cache = _l1(next_level=dram)
        first = cache.access_line(3, 0)
        merged = cache.access_line(3, 1)  # while still in flight
        assert merged <= first
        assert cache.stats.mshr_merges == 1
        assert dram.accesses == 1


class TestPrefetch:
    def test_nextline_prefetch_hides_latency(self):
        dram = DramModel(latency=100, bandwidth=8)
        cache = _l1(
            next_level=dram,
            prefetcher=NextLinePrefetcher(degree=2, on_hit=True),
            size=4096,
            assoc=4,
            mshr_entries=8,
        )
        cache.access_line(0, 0)
        assert cache.stats.prefetches_issued >= 1
        # Line 1 was prefetched: the demand access is a hit.
        done = cache.access_line(1, 500)
        assert done - 500 <= cache.hit_latency + 1
        assert cache.stats.prefetch_hits >= 1

    def test_stride_prefetcher_counts_late_hits(self):
        dram = DramModel(latency=200)
        cache = _l1(
            next_level=dram,
            prefetcher=StridePrefetcher(degree=1, on_hit=True),
            size=8192,
            assoc=4,
            mshr_entries=8,
        )
        t = 0
        for i in range(12):
            t = cache.access_line(i * 2, t, pc=0x40)  # stride-2 stream
        assert cache.stats.prefetches_issued > 0

    def test_prefetch_not_counted_as_demand(self):
        dram = DramModel(latency=100)
        cache = _l1(next_level=dram, prefetcher=NextLinePrefetcher(degree=1))
        cache.access_line(0, 0)
        assert cache.stats.accesses == 1


class TestInvariants:
    @given(
        lines=st.lists(st.integers(0, 63), min_size=1, max_size=200),
        writes=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_accounting_invariants(self, lines, writes):
        dram = DramModel(latency=80, page_hit_latency=50)
        cache = _l1(next_level=dram, size=2048, assoc=2)
        t = 0
        for i, line in enumerate(lines):
            is_write = writes[i % len(writes)]
            done = cache.access_line(line, t, is_write=is_write)
            assert done >= t
            t = done
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(lines)
        assert cache.resident_lines() <= (2048 // 64)
        # Monotone time, no negative counters.
        assert stats.writebacks >= 0 and stats.victim_hits == 0


class TestLifetime:
    @pytest.mark.parametrize("kwargs", [
        {},
        dict(ports=2, replacement="plru", hashing="xor", victim_entries=4,
             prefetcher=StridePrefetcher()),
    ], ids=["monomorphic", "general"])
    def test_dropped_caches_leave_no_cyclic_garbage(self, kwargs):
        """The composed access path never references its cache, so a
        finished trial's caches are freed without the cycle collector."""
        import gc

        def use():
            cache = _l1(next_level=DramModel(), **kwargs)
            for line in range(40):
                cache.access_line(line % 24, line * 3, is_write=line % 3 == 0)
            cache.reset()

        use()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                use()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
