"""Property-based tests for the cache substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.directory import ReplicationDirectory
from repro.cache.replacement import FIFOPolicy, LRUPolicy

lines = st.integers(min_value=0, max_value=1 << 30)

# An operation stream: (op, line) where op selects load/store/install/invalidate.
ops = st.lists(st.tuples(st.sampled_from("lsiv"), lines), max_size=300)


def apply_ops(cache, stream):
    for op, line in stream:
        if op == "l":
            hit = cache.access_load(line)
            if not hit:
                cache.install(line)
        elif op == "s":
            cache.access_store(line)
        elif op == "i":
            cache.install(line)
        else:
            cache.invalidate(line)


class TestCacheInvariants:
    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, stream):
        cache = SetAssociativeCache("p", 2048, 4, 128)
        apply_ops(cache, stream)
        assert cache.occupancy() <= cache.num_lines
        for s in cache._sets.values():
            assert len(s) <= cache.assoc

    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_load_after_install_hits(self, stream):
        cache = SetAssociativeCache("p", 2048, 4, 128)
        apply_ops(cache, stream)
        # Whatever the history, installing then immediately loading hits.
        cache.install(123)
        assert cache.access_load(123)

    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_stats_balance(self, stream):
        cache = SetAssociativeCache("p", 2048, 4, 128)
        apply_ops(cache, stream)
        s = cache.stats
        assert s.accesses == s.hits + s.misses
        assert s.store_hits == s.write_evicts  # write-evict policy
        assert s.replicated_misses == 0  # no directory attached

    @given(ops, st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_index_divisor_preserves_semantics(self, stream, divisor):
        """A sliced cache behaves identically to an unsliced one when fed
        the slice's own lines (hit/miss sequence must match)."""
        plain = SetAssociativeCache("p", 2048, 4, 128)
        sliced = SetAssociativeCache("q", 2048, 4, 128, index_divisor=divisor)
        outcomes_plain, outcomes_sliced = [], []
        for op, line in stream:
            if op != "l":
                continue
            # Feed the plain cache line k and the sliced cache line k*divisor
            # (slice 0's lines); set mappings then coincide.
            outcomes_plain.append(plain.access_load(line))
            if not outcomes_plain[-1]:
                plain.install(line)
            outcomes_sliced.append(sliced.access_load(line * divisor))
            if not outcomes_sliced[-1]:
                sliced.install(line * divisor)
        assert outcomes_plain == outcomes_sliced


class TestPolicyEquivalence:
    @given(st.lists(st.integers(0, 10), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_lru_victim_is_least_recent(self, touches):
        p = LRUPolicy()
        last_use = {}
        for t, line in enumerate(touches):
            if line in p:
                p.touch(line)
            else:
                if len(p) >= 4:
                    victim = p.victim()
                    expected = min(
                        (ln for ln in last_use if ln in p), key=lambda ln: last_use[ln]
                    )
                    assert victim == expected
                    p.evict()
                p.insert(line)
            last_use[line] = t

    @given(st.lists(st.integers(0, 10), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_fifo_victim_is_oldest_insert(self, touches):
        p = FIFOPolicy()
        insert_time = {}
        for t, line in enumerate(touches):
            if line in p:
                p.touch(line)
                continue
            if len(p) >= 4:
                victim = p.victim()
                expected = min(
                    (ln for ln in insert_time if ln in p),
                    key=lambda ln: insert_time[ln],
                )
                assert victim == expected
                p.evict()
            p.insert(line)
            insert_time[line] = t


class TestDirectoryInvariants:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 20), st.integers(0, 7)),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_directory_matches_reference_model(self, events):
        d = ReplicationDirectory()
        ref = {}
        for install, line, cache_id in events:
            if install:
                d.on_install(line, cache_id)
                ref.setdefault(line, set()).add(cache_id)
            else:
                d.on_evict(line, cache_id)
                if line in ref:
                    ref[line].discard(cache_id)
                    if not ref[line]:
                        del ref[line]
        assert d.distinct_lines() == len(ref)
        assert d.total_copies() == sum(len(h) for h in ref.values())
        for line, holders in ref.items():
            assert d.holders(line) == frozenset(holders)
            for c in range(8):
                assert d.held_elsewhere(line, c) == bool(holders - {c})
