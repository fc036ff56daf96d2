"""Tests for the cache simulators (repro.arch.cache)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    CacheStats,
    hierarchy_stats,
    simulate_direct_mapped,
)
from repro.errors import CheckpointError, ConfigurationError

L1 = CacheConfig(size_words=64, line_words=4)  # 16 lines, direct-mapped
L2 = CacheConfig(size_words=256, line_words=8)


class TestCacheConfig:
    def test_geometry(self):
        assert L1.n_lines == 16
        assert L1.n_sets == 16
        assert L1.line_shift == 2

    def test_associativity_splits_sets(self):
        c = CacheConfig(size_words=64, line_words=4, associativity=4)
        assert c.n_sets == 4

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=100, line_words=4)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=3)

    def test_line_larger_than_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=4, line_words=8)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=4, associativity=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(size_words=64, line_words=4, associativity=5)


class TestReferenceCache:
    def test_cold_miss_then_hit(self):
        c = Cache(L1)
        assert c.access(0) is False
        assert c.access(1) is True  # same 4-word line
        assert c.access(3) is True
        assert c.access(4) is False  # next line

    def test_conflict_eviction_direct_mapped(self):
        c = Cache(L1)
        c.access(0)
        assert c.access(64) is False  # same set (64 words apart), evicts line 0
        assert c.access(0) is False  # line 0 was evicted

    def test_associativity_avoids_conflict(self):
        c = Cache(CacheConfig(size_words=64, line_words=4, associativity=2))
        c.access(0)
        c.access(32)  # maps to same set in an 8-set, 2-way cache
        assert c.access(0) is True

    def test_lru_evicts_least_recent(self):
        c = Cache(CacheConfig(size_words=64, line_words=4, associativity=2))
        # three lines mapping to one set: 0, 32, 64 (8 sets of 4-word lines)
        c.access(0)
        c.access(32)
        c.access(0)  # 0 now most recent
        c.access(64)  # evicts 32
        assert c.access(0) is True
        assert c.access(32) is False

    def test_flush_keeps_stats(self):
        c = Cache(L1)
        c.access(0)
        c.access(0)
        c.flush()
        assert c.access(0) is False
        assert c.stats.accesses == 3
        assert c.stats.hits == 1

    def test_stats_hit_rate(self):
        s = CacheStats(accesses=10, hits=7)
        assert s.misses == 3
        assert s.hit_rate == pytest.approx(0.7)
        assert CacheStats().hit_rate == 1.0


class TestVectorizedDirectMapped:
    def test_matches_reference_on_stream(self, rng):
        addrs = rng.integers(0, 4096, size=3000).astype(np.int64)
        fast = simulate_direct_mapped(L1, addrs)
        slow = Cache(L1).access_stream(addrs)
        assert np.array_equal(fast, slow)

    def test_sequential_stream_hits_within_lines(self):
        addrs = np.arange(64, dtype=np.int64)
        hits = simulate_direct_mapped(L1, addrs)
        # one miss per 4-word line
        assert int((~hits).sum()) == 16

    def test_empty_stream(self):
        assert simulate_direct_mapped(L1, np.empty(0, dtype=np.int64)).size == 0

    def test_rejects_associative_config(self):
        cfg = CacheConfig(size_words=64, line_words=4, associativity=2)
        with pytest.raises(ConfigurationError):
            simulate_direct_mapped(cfg, np.array([0]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=400),
        st.sampled_from([(32, 2), (64, 4), (128, 8)]),
    )
    def test_property_equivalence_with_reference(self, addrs, geom):
        size, line = geom
        cfg = CacheConfig(size_words=size, line_words=line)
        a = np.array(addrs, dtype=np.int64)
        assert np.array_equal(
            simulate_direct_mapped(cfg, a), Cache(cfg).access_stream(a)
        )


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self, rng):
        addrs = rng.integers(0, 8192, size=2000).astype(np.int64)
        h = CacheHierarchy(L1, L2)
        s1, s2 = h.simulate_stream(addrs)
        assert s1.accesses == 2000
        assert s2.accesses == s1.misses

    def test_repeated_scan_hits_l2_when_it_fits(self):
        # 128 words fit in the 256-word L2 but thrash the 64-word L1
        addrs = np.tile(np.arange(128, dtype=np.int64), 4)
        s1, s2 = hierarchy_stats(L1, L2, addrs)
        assert s2.hits > 0
        assert s2.misses == 128 // L2.line_words  # only the cold fills miss L2

    def test_incremental_access_levels(self):
        h = CacheHierarchy(L1, L2)
        assert h.access(0) == "mem"
        assert h.access(1) == "l1"
        # 64 maps to line 0's L1 set but to another L2 set: it evicts
        # line 0 from L1 only
        assert h.access(64) == "mem"
        assert h.access(0) == "l2"

    def test_accumulates_across_streams(self, rng):
        h = CacheHierarchy(L1, L2)
        h.simulate_stream(rng.integers(0, 512, 100).astype(np.int64))
        h.simulate_stream(rng.integers(0, 512, 100).astype(np.int64))
        assert h.l1_stats.accesses == 200


_GEOMETRIES = {
    "direct-mapped": (L1, L2),
    "2-way": (
        CacheConfig(size_words=64, line_words=4, associativity=2),
        CacheConfig(size_words=256, line_words=8, associativity=2),
    ),
    "mixed": (L1, CacheConfig(size_words=256, line_words=8, associativity=2)),
    "one-set L1": (CacheConfig(size_words=4, line_words=4), L2),
}

# negative addresses included: an empty set must not match any line
_addr = st.integers(min_value=-80, max_value=1023)
_step = st.one_of(
    st.tuples(st.just("access"), _addr),
    st.tuples(st.just("stream"), st.lists(_addr, max_size=40)),
    st.tuples(st.just("roundtrip"), st.none()),
)


class TestOneWarmState:
    """``access`` and ``simulate_stream`` share one warm state per level."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_GEOMETRIES)), st.lists(_step, max_size=30))
    def test_interleaved_paths_match_reference_lru(self, geometry, steps):
        l1, l2 = _GEOMETRIES[geometry]
        h = CacheHierarchy(l1, l2)
        ref1, ref2 = Cache(l1), Cache(l2)

        def ref_access(a):
            if ref1.access(a):
                return "l1"
            return "l2" if ref2.access(a) else "mem"

        for kind, arg in steps:
            if kind == "access":
                assert h.access(arg) == ref_access(arg)
            elif kind == "stream":
                before = (ref1.stats.hits, ref2.stats.accesses, ref2.stats.hits)
                for a in arg:
                    ref_access(a)
                s1, s2 = h.simulate_stream(np.array(arg, dtype=np.int64))
                assert (s1.accesses, s1.hits) == (len(arg), ref1.stats.hits - before[0])
                assert (s2.accesses, s2.hits) == (
                    ref2.stats.accesses - before[1],
                    ref2.stats.hits - before[2],
                )
            else:
                h = CacheHierarchy.from_state(pickle.loads(pickle.dumps(h.to_state())))
            assert (h.l1_stats.accesses, h.l1_stats.hits) == (
                ref1.stats.accesses,
                ref1.stats.hits,
            )
            assert (h.l2_stats.accesses, h.l2_stats.hits) == (
                ref2.stats.accesses,
                ref2.stats.hits,
            )

    def test_stream_lines_serve_later_accesses(self):
        h = CacheHierarchy(L1, L2)
        h.simulate_stream(np.array([0, 64], dtype=np.int64))
        assert h.access(64) == "l1"
        assert h.access(0) == "l2"
        s1, _ = h.simulate_stream(np.array([0], dtype=np.int64))
        assert s1.hits == 1

    def test_flush_empties_both_levels(self):
        for l1, l2 in _GEOMETRIES.values():
            h = CacheHierarchy(l1, l2)
            h.access(0)
            h.flush()
            assert h.access(0) == "mem"
            assert h.l1_stats.accesses == 2


class TestHierarchyState:
    def test_version_1_state_rejected(self):
        state = CacheHierarchy(L1, L2).to_state()
        state["version"] = 1
        with pytest.raises(CheckpointError, match="version 1"):
            CacheHierarchy.from_state(state)

    def test_state_geometry_mismatch_rejected(self):
        state = CacheHierarchy(L1, L2).to_state()
        state["l1_tags"] = state["l1_tags"][:-1]
        with pytest.raises(CheckpointError, match="tags"):
            CacheHierarchy.from_state(state)
        lru = _GEOMETRIES["2-way"]
        state = CacheHierarchy(*lru).to_state()
        state["l2_sets"] = None
        with pytest.raises(CheckpointError, match="sets"):
            CacheHierarchy.from_state(state)
