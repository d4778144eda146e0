"""Unit tests for the set-associative cache (functional model)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.directory import ReplicationDirectory


def make_cache(**kw):
    defaults = dict(name="c", size_bytes=4096, assoc=4, line_bytes=128)
    defaults.update(kw)
    return SetAssociativeCache(**defaults)


class TestGeometry:
    def test_sets_and_lines(self):
        c = make_cache()  # 4096 / (4*128) = 8 sets
        assert c.num_sets == 8
        assert c.num_lines == 32

    def test_set_index_wraps(self):
        c = make_cache()
        assert c.set_index(0) == 0
        assert c.set_index(9) == 1
        assert c.set_index(8) == 0

    def test_index_divisor_strips_slice_bits(self):
        # An address-sliced cache seeing only lines = 8k + 3.
        c = make_cache(index_divisor=8)
        seen = {c.set_index(8 * k + 3) for k in range(64)}
        assert seen == set(range(c.num_sets))  # all sets usable

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size_bytes=4000)  # not multiple of assoc*line
        with pytest.raises(ValueError):
            make_cache(line_bytes=100)
        with pytest.raises(ValueError):
            make_cache(assoc=0)
        with pytest.raises(ValueError):
            make_cache(size_bytes=3 * 4 * 128)  # 3 sets: not a power of two
        with pytest.raises(ValueError):
            make_cache(index_divisor=0)
        with pytest.raises(ValueError):
            make_cache(policy="plru")  # rejected at build, not first touch

    def test_sets_are_built_on_first_touch(self):
        c = make_cache()
        assert len(c._sets) == 0 and c.occupancy() == 0
        c.install(9)
        assert list(c._sets) == [c.set_index(9)]
        assert c.contains(9) and c.occupancy() == 1


class TestLoads:
    def test_miss_then_install_then_hit(self):
        c = make_cache()
        assert not c.access_load(5)
        assert c.install(5) is None
        assert c.access_load(5)
        assert c.stats.load_misses == 1
        assert c.stats.load_hits == 1

    def test_miss_does_not_install(self):
        c = make_cache()
        c.access_load(5)
        assert not c.contains(5)

    def test_eviction_on_full_set(self):
        c = make_cache()  # 4-way
        lines = [0, 8, 16, 24, 32]  # all map to set 0
        for line in lines[:4]:
            c.install(line)
        victim = c.install(lines[4])
        assert victim == 0  # LRU
        assert not c.contains(0)
        assert c.stats.evictions == 1

    def test_install_existing_line_is_noop(self):
        c = make_cache()
        c.install(5)
        assert c.install(5) is None
        assert c.stats.installs == 1

    def test_occupancy_never_exceeds_capacity(self):
        c = make_cache()
        for line in range(200):
            c.install(line)
        assert c.occupancy() <= c.num_lines


class TestStores:
    def test_write_evict_on_hit(self):
        c = make_cache()
        c.install(7)
        assert c.access_store(7)
        assert not c.contains(7)  # write-evict
        assert c.stats.store_hits == 1
        assert c.stats.write_evicts == 1

    def test_no_write_allocate_on_miss(self):
        c = make_cache()
        assert not c.access_store(7)
        assert not c.contains(7)
        assert c.stats.store_misses == 1


class TestPerfect:
    def test_perfect_cache_always_hits(self):
        c = make_cache(perfect=True)
        assert c.access_load(123456)
        assert c.access_store(999)
        assert c.stats.misses == 0
        assert c.install(1) is None
        assert c.occupancy() == 0


class TestInvalidateAndFlush:
    def test_invalidate(self):
        c = make_cache()
        c.install(3)
        assert c.invalidate(3)
        assert not c.invalidate(3)
        assert not c.contains(3)

    def test_flush_drops_everything(self):
        c = make_cache()
        for line in range(10):
            c.install(line)
        assert c.flush() == 10
        assert c.occupancy() == 0


class TestDirectoryIntegration:
    def test_install_and_evict_update_directory(self):
        d = ReplicationDirectory()
        c0 = make_cache(cache_id=0, directory=d)
        c1 = make_cache(cache_id=1, directory=d)
        c0.install(5)
        c1.install(5)
        assert d.copies(5) == 2
        c0.invalidate(5)
        assert d.copies(5) == 1

    def test_replicated_miss_counting(self):
        d = ReplicationDirectory()
        c0 = make_cache(cache_id=0, directory=d)
        c1 = make_cache(cache_id=1, directory=d)
        c0.install(5)
        c1.access_load(5)  # miss, but resident in c0
        assert c1.stats.replicated_misses == 1
        c1.access_load(6)  # miss, resident nowhere
        assert c1.stats.replicated_misses == 1

    def test_own_copy_does_not_count_as_replica(self):
        d = ReplicationDirectory()
        c0 = make_cache(cache_id=0, directory=d)
        c0.install(5)
        # Contrived: line resident in c0 itself only; a store miss on a
        # different line must not count it.
        c0.access_store(5)  # hit (write-evict)
        assert c0.stats.replicated_misses == 0


class TestStatsMerge:
    def test_merge_accumulates(self):
        c0, c1 = make_cache(), make_cache()
        c0.access_load(1)
        c1.access_load(1)
        c1.install(1)
        c1.access_load(1)
        c0.stats.merge(c1.stats)
        assert c0.stats.load_misses == 2
        assert c0.stats.load_hits == 1
        assert c0.stats.installs == 1

    def test_miss_rate_empty_cache(self):
        c = make_cache()
        assert c.stats.miss_rate == 0.0
        assert c.stats.load_miss_rate == 0.0
