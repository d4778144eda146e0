"""Tests for the persistent result store: key stability, collision
resistance, serialization round-trips, and corruption tolerance."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

import repro.sim.store as store
from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.cache.cache import CacheStats
from repro.sim.results import RECORD_LAYOUT, SimResult, identity_manifest
from repro.sim.store import (
    CACHE_SCHEMA_VERSION,
    DiskResultCache,
    profile_cache_key,
    sim_cache_key,
)
from repro.sim.system import simulate
from repro.workloads.profile import AppProfile
from repro.workloads.suite import get_app

PROFILE = AppProfile(name="unit", num_ctas=4, accesses_per_cta=8)
SPEC = DesignSpec.clustered(8, 4)
CFG = SimConfig(gpu=GPUConfig(num_cores=16, num_l2_slices=8, num_channels=4))


class TestCacheKey:
    def test_key_is_stable_hex(self):
        key = sim_cache_key(PROFILE, SPEC, CFG)
        assert key == sim_cache_key(PROFILE, SPEC, CFG)
        assert len(key) == 64
        int(key, 16)  # hex digest

    def test_equal_values_equal_keys(self):
        """Logically identical, separately constructed inputs agree."""
        profile2 = AppProfile(name="unit", num_ctas=4, accesses_per_cta=8)
        spec2 = DesignSpec.clustered(8, 4)
        cfg2 = SimConfig(gpu=GPUConfig(num_cores=16, num_l2_slices=8, num_channels=4))
        assert sim_cache_key(profile2, spec2, cfg2) == sim_cache_key(PROFILE, SPEC, CFG)

    def test_key_stable_across_processes(self):
        """Same logical config -> same key in a fresh interpreter."""
        script = (
            "from repro.sim.store import sim_cache_key\n"
            "from repro.sim.config import GPUConfig, SimConfig\n"
            "from repro.core.designs import DesignSpec\n"
            "from repro.workloads.profile import AppProfile\n"
            "print(sim_cache_key(\n"
            "    AppProfile(name='unit', num_ctas=4, accesses_per_cta=8),\n"
            "    DesignSpec.clustered(8, 4),\n"
            "    SimConfig(gpu=GPUConfig(num_cores=16, num_l2_slices=8,\n"
            "                            num_channels=4))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == sim_cache_key(PROFILE, SPEC, CFG)

    # A changed value for every SimConfig field (keyed and neutral).
    _SIMCONFIG_CHANGED = {
        "gpu": GPUConfig(num_cores=32, num_l2_slices=8, num_channels=4),
        "scale": 0.123,
        "cta_scheduler": "distributed",
        "l1_latency_override": 11.0,
        "home_strategy": "bits",
        "home_bit_shift": 3,
        "full_line_noc1_replies": True,
        "l1_policy": "fifo",
        "l2_policy": "fifo",
        "l1_bypass": True,
        "dcl1_queue_depth": 4,
        "sanitize": True,
        "watchdog": True,
        "race_check": True,
        "race_seed": 42,
        "max_events": 123,
    }

    def test_changed_value_map_is_exhaustive(self):
        """Every SimConfig field has an entry above — a new field without
        one fails here instead of silently skipping the key check."""
        assert set(self._SIMCONFIG_CHANGED) == {
            f.name for f in dataclasses.fields(SimConfig)
        }

    @pytest.mark.parametrize("field_name", sorted(
        {f.name for f in dataclasses.fields(SimConfig)}
        - SimConfig.FINGERPRINT_NEUTRAL_FIELDS
    ))
    def test_any_keyed_simconfig_field_changes_key(self, field_name):
        base = sim_cache_key(PROFILE, SPEC, CFG)
        changed = self._SIMCONFIG_CHANGED[field_name]
        assert changed != getattr(CFG, field_name), field_name
        cfg = dataclasses.replace(CFG, **{field_name: changed})
        assert sim_cache_key(PROFILE, SPEC, cfg) != base, field_name

    @pytest.mark.parametrize("field_name", sorted(SimConfig.FINGERPRINT_NEUTRAL_FIELDS))
    def test_neutral_simconfig_field_keeps_key(self, field_name):
        """Observation-only knobs must NOT fragment the shared cache:
        the same simulation with the watchdog/sanitizer toggled hits the
        same entry (their bit-invariance is proven by purity --confirm)."""
        base = sim_cache_key(PROFILE, SPEC, CFG)
        changed = self._SIMCONFIG_CHANGED[field_name]
        assert changed != getattr(CFG, field_name), field_name
        cfg = dataclasses.replace(CFG, **{field_name: changed})
        assert sim_cache_key(PROFILE, SPEC, cfg) == base, field_name

    def test_neutral_profile_field_keeps_key(self):
        profile = dataclasses.replace(PROFILE, suite="polybench")
        assert sim_cache_key(profile, SPEC, CFG) == sim_cache_key(PROFILE, SPEC, CFG)

    def test_cache_key_manifest_matches_classes(self):
        from repro.sim.store import cache_key_manifest

        manifest = cache_key_manifest()
        assert set(manifest) == {"profile", "design", "config", "gpu"}
        cfg = manifest["config"]
        assert cfg["class"] == "SimConfig"
        assert set(cfg["neutral"]) == SimConfig.FINGERPRINT_NEUTRAL_FIELDS
        assert set(cfg["keyed"]) | set(cfg["neutral"]) == {
            f.name for f in dataclasses.fields(SimConfig)
        }
        assert not set(cfg["keyed"]) & set(cfg["neutral"])
        assert manifest["profile"]["neutral"] == ("suite",)
        assert manifest["design"]["neutral"] == ()
        assert manifest["gpu"]["neutral"] == ()

    @pytest.mark.parametrize("field_name,value", [
        ("kind", DesignSpec.baseline().kind),
        ("num_dcl1", 4),
        ("num_clusters", 8),
        ("noc1_freq_mult", 2.0),
        ("noc2_freq_mult", 2.0),
        ("l1_size_mult", 16.0),
        ("perfect_l1", True),
        ("label", "other"),
    ])
    def test_any_designspec_field_changes_key(self, field_name, value):
        base = sim_cache_key(PROFILE, SPEC, CFG)
        assert value != getattr(SPEC, field_name)
        spec = dataclasses.replace(SPEC, **{field_name: value})
        assert sim_cache_key(PROFILE, spec, CFG) != base

    @pytest.mark.parametrize("field_name,value", [
        ("name", "other"),
        ("num_ctas", 5),
        ("accesses_per_cta", 9),
        ("shared_lines", 64),
        ("block_repeats", 3),
        ("store_fraction", 0.25),
        ("imbalance", 0.5),
        ("trace_variant", 1),
    ])
    def test_any_profile_field_changes_key(self, field_name, value):
        base = sim_cache_key(PROFILE, SPEC, CFG)
        assert value != getattr(PROFILE, field_name)
        profile = dataclasses.replace(PROFILE, **{field_name: value})
        assert sim_cache_key(profile, SPEC, CFG) != base

    def test_gpu_field_changes_key(self):
        base = sim_cache_key(PROFILE, SPEC, CFG)
        gpu = dataclasses.replace(CFG.gpu, l1_latency=30.0)
        cfg = dataclasses.replace(CFG, gpu=gpu)
        assert sim_cache_key(PROFILE, SPEC, cfg) != base

    def test_schema_version_changes_key(self, monkeypatch):
        import repro.sim.store as store

        base = sim_cache_key(PROFILE, SPEC, CFG)
        monkeypatch.setattr(store, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        assert sim_cache_key(PROFILE, SPEC, CFG) != base

    # Digests recorded when each key was one json.dumps of the whole
    # payload.  Key derivation now splices memoized per-object fragments;
    # every key, and so every on-disk entry, must stay as it was.
    @pytest.mark.parametrize("make,digest", [
        pytest.param(
            lambda: (PROFILE, SPEC, CFG),
            "6f2f01f1f7773da22532dada2a40e40d0e762e656766a7c4b85a531bba00ff94",
            id="unit",
        ),
        pytest.param(
            lambda: (get_app("T-AlexNet"), DesignSpec.clustered(40, 10, boost=2.0),
                     SimConfig(scale=0.005)),
            "f0e65f291de4957ec098a07329dbe6e20a7afa699bd2c9b35ab79d7345ab4ce2",
            id="alexnet-boost",
        ),
        pytest.param(
            lambda: (get_app("T-AlexNet").variant(3), DesignSpec.shared(40),
                     SimConfig(gpu=GPUConfig().scaled_up())),
            "a6655ed34fc4a01b3f657a58f25d0cfe6e03dff647ae4f9e88139920b54c619a",
            id="variant3-scaled-up",
        ),
    ])
    def test_key_matches_recorded_digest(self, make, digest):
        point = make()
        assert sim_cache_key(*point) == digest
        assert sim_cache_key(*point) == digest  # served from the memo

    def test_profile_key_matches_recorded_digest(self):
        profile = get_app("P-2MM")
        digest = "0f2d687b75bb092d140b95aef36f6a52b793067feb81b3e3c39e41ab0c1ba239"
        assert profile_cache_key(profile) == digest
        assert profile_cache_key(profile) == digest

    # SimConfig(scale=1) == SimConfig(scale=1.0), but the JSON renders
    # 1 and 1.0: the keys differ, whichever config is keyed first.
    _SCALE_KEYS = (
        (1, "3ebbbcd1194a9210b85e25ef8b6db075451c05938b7d0223ddaa58d111fd7706"),
        (1.0, "a07df08445fc2e404d341a6c59ec817811e3d80c6ae733961028cd8675fed329"),
    )

    @pytest.mark.parametrize("order", [_SCALE_KEYS, _SCALE_KEYS[::-1]],
                             ids=["int-first", "float-first"])
    def test_equal_configs_keep_their_own_keys(self, order):
        cfgs = [SimConfig(scale=scale) for scale, _ in order]
        assert cfgs[0] == cfgs[1]
        for cfg, (_, digest) in zip(cfgs, order):
            assert sim_cache_key(PROFILE, SPEC, cfg) == digest

    def test_key_derivation_leaves_pickle_unchanged(self):
        """Nothing is cached on the instances, so what crosses a pool
        boundary is the bare fields and the worker re-derives the key."""
        point = (AppProfile(name="fresh", num_ctas=3), DesignSpec.shared(8),
                 SimConfig(scale=0.5))
        before = pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL)
        sim_cache_key(*point)
        profile_cache_key(point[0])
        assert pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL) == before

    def test_fragment_memo_is_capped(self):
        for i in range(store._FRAGMENT_MEMO_CAP + 10):
            profile = dataclasses.replace(PROFILE, num_ctas=i + 1)
            key = sim_cache_key(profile, SPEC, CFG)
            assert len(store._fragments) <= store._FRAGMENT_MEMO_CAP
        assert key == sim_cache_key(
            dataclasses.replace(PROFILE, num_ctas=i + 1), SPEC, CFG
        )


class TestSerializationRoundtrip:
    def test_fingerprint_survives_roundtrip(self, tiny_config):
        res = simulate(get_app("T-AlexNet"), SPEC,
                       dataclasses.replace(tiny_config, scale=0.02))
        blob = json.dumps(res.to_jsonable())
        back = SimResult.from_jsonable(json.loads(blob))
        assert back.fingerprint() == res.fingerprint()

    def test_unknown_field_raises(self):
        # A record has no field names: an unknown field is a value the
        # layout has no slot for.
        data = SimResult().to_jsonable()
        data.append(1)
        with pytest.raises(ValueError):
            SimResult.from_jsonable(data)

    def test_record_is_positional(self):
        record = SimResult(app="a", design="d", cycles=7.0).to_jsonable()
        assert len(record) == len(identity_manifest()["identity"])
        assert record[:3] == ["a", "d", 7.0]

    def test_identity_fields_precede_observability(self):
        # from_jsonable builds a result positionally from the record.
        manifest = identity_manifest()
        names = tuple(f.name for f in dataclasses.fields(SimResult))
        assert names == manifest["identity"] + manifest["non_identity"]


class TestDiskResultCache:
    def make_result(self, tiny_config):
        return simulate(get_app("C-BLK"), SPEC,
                        dataclasses.replace(tiny_config, scale=0.02))

    def test_roundtrip(self, tmp_path, tiny_config):
        cache = DiskResultCache(tmp_path)
        res = self.make_result(tiny_config)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        assert cache.get(key) is None
        cache.put(key, res)
        assert len(cache) == 1
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.fingerprint() == res.fingerprint()
        assert cache.hits == 1 and cache.misses == 1

    def test_layout_is_versioned_and_fanned_out(self, tmp_path, tiny_config):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        assert path.parent.parent.name == f"v{CACHE_SCHEMA_VERSION}"

    def test_truncated_entry_is_a_miss(self, tmp_path, tiny_config):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        path = cache.path_for(key)
        path.write_text(path.read_text()[: 40])
        assert cache.get(key) is None

    # Raw file text, or (field, value) replacing one field of an
    # otherwise valid entry's record.
    @pytest.mark.parametrize("body", [
        pytest.param("not json at all \x00\x01", id="not-json"),
        pytest.param("[]", id="list"),
        pytest.param('"x"', id="string"),
        pytest.param("3", id="number"),
        pytest.param("null", id="null"),
        pytest.param(("l1", 3), id="l1-not-object"),
        pytest.param(("l2", []), id="l2-not-object"),
    ])
    def test_garbage_entry_is_a_miss(self, tmp_path, body):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        if isinstance(body, tuple):
            name, value = body
            record = SimResult().to_jsonable()
            record[identity_manifest()["identity"].index(name)] = value
            body = json.dumps([CACHE_SCHEMA_VERSION, RECORD_LAYOUT, key, record])
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(body)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_schema_mismatch_is_a_miss(self, tmp_path, tiny_config):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        path = cache.path_for(key)
        doc = json.loads(path.read_text())
        doc[0] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_stale_result_fields_are_a_miss(self, tmp_path, tiny_config):
        """An entry written by a simulator with different SimResult fields
        must not deserialize into a half-filled result."""
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        path = cache.path_for(key)
        doc = json.loads(path.read_text())
        doc[3].append(1)  # a value for a field from the future
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None

    # Each edit damages the record (or the header) of a valid entry.
    @pytest.mark.parametrize("damage", [
        pytest.param(lambda doc: doc[3].pop(), id="missing-last-field"),
        pytest.param(
            lambda doc: doc[3][identity_manifest()["identity"].index("l1")].pop(),
            id="short-cachestats"),
        pytest.param(lambda doc: doc[3].append(0), id="extra-trailing-value"),
        pytest.param(lambda doc: doc.__setitem__(1, "0" * len(RECORD_LAYOUT)),
                     id="wrong-layout"),
    ])
    def test_malformed_record_is_a_miss(self, tmp_path, tiny_config, damage):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        path = cache.path_for(key)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        if doc[1] == RECORD_LAYOUT:
            # Never decoded with a default standing in for a value.
            with pytest.raises(ValueError):
                SimResult.from_jsonable(doc[3])
        else:
            # The record is intact: the layout header alone made the miss.
            SimResult.from_jsonable(doc[3])

    def test_dict_format_entry_is_a_miss_and_put_replaces_it(
        self, tmp_path, tiny_config
    ):
        # The dict-shaped document older versions wrote at the same path.
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        res = self.make_result(tiny_config)
        record = res.to_jsonable()
        result = dict(zip(identity_manifest()["identity"], record))
        for name in ("l1", "l2"):
            result[name] = dict(zip(CacheStats.__slots__, result[name]))
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "key": key, "result": result}
        ))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, res)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.fingerprint() == res.fingerprint()
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_concurrent_writers_never_tear_a_read(self, tmp_path, tiny_config):
        """Two processes rewrite one key while this one reads it: put's
        mkstemp + os.replace means every read is a miss or a whole entry,
        never a torn one, and no temp file outlives the writers.  A torn
        file would decode as a miss, so once one read has hit, every
        later read must hit too (the old entry or the new one)."""
        res = self.make_result(tiny_config)
        expected = res.fingerprint()
        key = sim_cache_key(PROFILE, SPEC, CFG)
        ctx = multiprocessing.get_context("fork")
        # Set once a read has hit; each writer keeps writing until then
        # (and for at least 300 puts), so hits overlap live writes.
        seen_hit = ctx.Event()

        def writer():
            cache = DiskResultCache(tmp_path)
            n = 0
            while n < 300 or (not seen_hit.is_set() and n < 20_000):
                cache.put(key, res)
                n += 1

        writers = [ctx.Process(target=writer) for _ in range(2)]
        for proc in writers:
            proc.start()
        cache = DiskResultCache(tmp_path)
        reads = hits = 0
        deadline = time.monotonic() + 60
        while any(proc.is_alive() for proc in writers):
            assert time.monotonic() < deadline, "writers still running"
            loaded = cache.get(key)
            reads += 1
            if loaded is not None:
                assert loaded.fingerprint() == expected
                hits += 1
                seen_hit.set()
            else:
                assert hits == 0, f"miss after {hits} hits: a torn entry"
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert hits >= 1, f"no read overlapped a write ({reads} reads)"
        leftovers = [name for _, _, names in os.walk(tmp_path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []
        assert cache.get(key).fingerprint() == expected

    def test_clear(self, tmp_path, tiny_config):
        cache = DiskResultCache(tmp_path)
        key = sim_cache_key(PROFILE, SPEC, CFG)
        cache.put(key, self.make_result(tiny_config))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key) is None
