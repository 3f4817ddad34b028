"""Prefetcher behaviour."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import REGISTRY
from repro.memory.cache import Cache
from repro.memory.prefetcher import (
    GHBPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StridePrefetcher,
    build_prefetcher,
)


class TestNull:
    def test_never_prefetches(self):
        p = NullPrefetcher()
        assert p.observe(10, 0x100, hit=False) == []


class TestNextLine:
    def test_degree_controls_depth(self):
        p = NextLinePrefetcher(degree=3)
        assert p.observe(10, 0x100, hit=False) == [11, 12, 13]

    def test_on_hit_flag(self):
        quiet = NextLinePrefetcher(degree=1, on_hit=False)
        eager = NextLinePrefetcher(degree=1, on_hit=True)
        assert quiet.observe(10, 0x100, hit=True) == []
        assert eager.observe(10, 0x100, hit=True) == [11]


class TestStride:
    def test_learns_constant_stride(self):
        p = StridePrefetcher(degree=2, on_hit=True)
        out = []
        for i in range(6):
            out = p.observe(100 + 3 * i, 0x40, hit=False)
        assert out == [100 + 3 * 5 + 3, 100 + 3 * 5 + 6]

    def test_needs_confidence_before_prefetching(self):
        p = StridePrefetcher(degree=1, on_hit=True)
        assert p.observe(100, 0x40, hit=False) == []
        assert p.observe(103, 0x40, hit=False) == []  # stride learned, conf 0->?

    def test_random_stream_stays_quiet(self):
        p = StridePrefetcher(degree=2, on_hit=True)
        fired = 0
        addrs = [5, 900, 17, 4242, 33, 12]
        for addr in addrs:
            fired += len(p.observe(addr, 0x40, hit=False))
        assert fired == 0

    def test_per_pc_tables(self):
        p = StridePrefetcher(degree=1, on_hit=True, table_entries=64)
        for i in range(6):
            p.observe(100 + 2 * i, 0x40, hit=False)
            p.observe(500 + 7 * i, 0x44, hit=False)
        out_a = p.observe(112, 0x40, hit=False)
        out_b = p.observe(542, 0x44, hit=False)
        assert out_a == [114]
        assert out_b == [549]

    def test_reset(self):
        p = StridePrefetcher(degree=1, on_hit=True)
        for i in range(6):
            p.observe(100 + 2 * i, 0x40, hit=False)
        p.reset()
        assert p.observe(200, 0x40, hit=False) == []


class TestGHB:
    def test_learns_repeating_delta_sequence(self):
        p = GHBPrefetcher(degree=2, on_hit=True)
        # Period-3 delta pattern: +1, +4, +16 repeating.
        addr = 0
        fired = []
        deltas = [1, 4, 16] * 8
        for d in deltas:
            addr += d
            out = p.observe(addr, 0x40, hit=False)
            if out:
                fired.append((addr, out))
        assert fired, "GHB should predict a repeating delta sequence"
        # Check one prediction is delta-correct: after seeing (1,4) the
        # follower is 16.
        addr_at, predicted = fired[-1]
        assert predicted[0] != addr_at

    def test_validation(self):
        with pytest.raises(ValueError):
            GHBPrefetcher(buffer_entries=2)


class TestStream:
    def test_needs_stream_confirmation_before_prefetching(self):
        from repro.memory.prefetcher import StreamPrefetcher

        p = StreamPrefetcher(table_entries=4, degree=2)
        assert p.observe(100, 0x40, hit=False) == []  # allocates candidate
        # The predicted next line confirms the stream and runs ahead.
        assert p.observe(101, 0x40, hit=False) == [102, 103]
        assert p.observe(102, 0x40, hit=False) == [103, 104]

    def test_random_accesses_stay_quiet(self):
        from repro.memory.prefetcher import StreamPrefetcher

        p = StreamPrefetcher(table_entries=4, degree=2)
        fired = []
        for line in (10, 500, 77, 9000, 42, 1234):
            fired += p.observe(line, 0x40, hit=False)
        assert fired == []

    def test_table_is_bounded_fifo(self):
        from repro.memory.prefetcher import StreamPrefetcher

        p = StreamPrefetcher(table_entries=2, degree=1)
        p.observe(10, 0, hit=False)
        p.observe(20, 0, hit=False)
        p.observe(30, 0, hit=False)  # evicts the candidate anchored at 10
        assert len(p._streams) == 2
        assert p.observe(11, 0, hit=False) == []  # stream 10 was dropped

    def test_on_hit_gating_and_reset(self):
        from repro.memory.prefetcher import StreamPrefetcher

        p = StreamPrefetcher(table_entries=4, degree=1, on_hit=False)
        p.observe(100, 0, hit=False)
        assert p.observe(101, 0, hit=True) == []  # hits ignored
        p.observe(101, 0, hit=False)
        p.reset()
        assert p.observe(102, 0, hit=False) == []

    def test_validation(self):
        from repro.memory.prefetcher import StreamPrefetcher

        with pytest.raises(ValueError):
            StreamPrefetcher(table_entries=0)


class TestFactory:
    def test_known_kinds(self):
        for kind in ("none", "nextline", "stride", "ghb", "stream"):
            assert build_prefetcher(kind).kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            build_prefetcher("ampm")

    def test_parameters_forwarded(self):
        p = build_prefetcher("stride", degree=4, table_entries=16, on_hit=True)
        assert p.degree == 4 and p.table_entries == 16 and p.on_hit is True


#: Every registered prefetcher, by name.
_PREFETCHERS = [c.name for c in REGISTRY.slot("prefetcher")]

_accesses = st.lists(
    st.tuples(st.integers(0, 96), st.sampled_from((0x40, 0x44, 0x80, 0x1c0)),
              st.booleans()),
    max_size=60,
)


def _build(name, on_hit, degree=2, table_entries=16):
    return build_prefetcher(name, degree=degree, table_entries=table_entries,
                            on_hit=on_hit)


class TestHitDeclaration:
    """``needs_hits`` is false only where skipping hits is invisible.

    The cache skips ``observe`` on hits for such prefetchers, which is
    safe exactly when a hit observation proposes nothing and leaves the
    prefetcher's state as it was.
    """

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(_PREFETCHERS), degree=st.sampled_from((1, 2, 4)),
           table_entries=st.sampled_from((16, 32, 64)), warmup=_accesses,
           probes=_accesses)
    def test_hits_are_inert_when_not_needed(self, name, degree, table_entries,
                                            warmup, probes):
        p = _build(name, False, degree, table_entries)
        if p.needs_hits:
            return
        for line, pc, hit in warmup:
            p.observe(line, pc, hit)
        for line, pc, _hit in probes:
            before = copy.deepcopy(vars(p))
            assert p.observe(line, pc, hit=True) == []
            assert vars(p) == before

    @pytest.mark.parametrize("name", _PREFETCHERS)
    def test_on_hit_turns_hit_observation_back_on(self, name):
        binds_on_hit = any(kwarg == "on_hit"
                           for kwarg, _f in REGISTRY.slot("prefetcher").get(name).params)
        assert _build(name, True).needs_hits is binds_on_hit

    def test_declarations(self):
        assert not NullPrefetcher().needs_hits
        assert not NextLinePrefetcher(on_hit=False).needs_hits
        # The stride table trains on every demand access.
        assert StridePrefetcher(on_hit=False).needs_hits

    @pytest.mark.parametrize("on_hit", [False, True])
    def test_cache_shows_hits_only_when_needed(self, on_hit):
        seen = []

        class Spy(NextLinePrefetcher):
            def observe(self, line_addr, pc, hit):
                seen.append(hit)
                return super().observe(line_addr, pc, hit)

        cache = Cache("L1D", size=1024, assoc=2, prefetcher=Spy(on_hit=on_hit))
        cache.access_line(10, 0)
        cache.access_line(10, 100)  # a hit
        assert seen == ([False, True] if on_hit else [False])
