"""Integration tests for the full system on a tiny platform.

These exercise the complete request lifecycle across all design families
and assert structural invariants (conservation, determinism, stats
consistency) rather than calibrated magnitudes.
"""

import dataclasses

import pytest

from repro.core.designs import DesignSpec
from repro.gpu.request import AccessKind
from repro.sim.config import SimConfig
from repro.sim.system import GPUSystem, simulate
from repro.workloads.generator import generate_workload
from repro.workloads.profile import AppProfile

DESIGNS = [
    DesignSpec.baseline(),
    DesignSpec.private(8),
    DesignSpec.shared(8),
    DesignSpec.clustered(8, 4),
    DesignSpec.clustered(8, 4, boost=2.0),
    DesignSpec.cdxbar(),
    DesignSpec.single_l1(),
]


@pytest.fixture(params=DESIGNS, ids=[d.label for d in DESIGNS])
def design(request):
    return request.param


class TestLifecycle:
    def test_all_requests_complete(self, design, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, design, tiny_config)
        res = system.run()
        assert system.outstanding == 0
        assert res.total_requests == shared_profile.total_accesses
        assert res.cycles > 0
        assert res.ipc > 0

    def test_instruction_count_matches_trace(self, design, tiny_config, shared_profile):
        res = simulate(shared_profile, design, tiny_config)
        expected = shared_profile.total_accesses * (1 + int(shared_profile.compute_gap))
        assert res.instructions == expected

    def test_l1_accesses_cover_loads_and_stores(self, design, tiny_config, streaming_profile):
        res = simulate(streaming_profile, design, tiny_config)
        # Every LOAD/STORE probes the L1 level at least once (replays on
        # MSHR stalls can add more).
        assert res.l1.accesses >= res.loads + res.stores

    def test_single_use(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        system.run()
        with pytest.raises(RuntimeError):
            system.run()

    def test_wiring_allocates_no_cache_set_state(self, design, tiny_config,
                                                 shared_profile):
        # Cache sets are built on first touch: a freshly wired system
        # holds none, and a run builds only the sets its lines map to.
        system = GPUSystem(shared_profile, design, tiny_config)
        caches = system.l1_caches + [s.cache for s in system.l2_slices]
        assert all(len(c._sets) == 0 for c in caches)
        system.run()
        touched = sum(len(c._sets) for c in caches)
        assert 0 < touched <= sum(c.num_sets for c in caches)


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_config, shared_profile):
        a = simulate(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        b = simulate(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        assert a.cycles == b.cycles
        assert a.l1.misses == b.l1.misses
        assert a.load_rtt_sum == b.load_rtt_sum


class TestDesignBehaviour:
    def test_shared_design_eliminates_replication(self, tiny_config, shared_profile):
        res = simulate(shared_profile, DesignSpec.shared(8), tiny_config)
        assert res.replication_ratio == 0.0
        assert res.mean_replicas <= 1.0

    def test_clustered_bounds_replicas(self, tiny_config, shared_profile):
        res = simulate(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        assert res.mean_replicas <= 4.0 + 1e-9

    def test_baseline_replicates_shared_data(self, tiny_config, shared_profile):
        res = simulate(shared_profile, DesignSpec.baseline(), tiny_config)
        assert res.replication_ratio > 0.2
        assert res.mean_replicas > 1.0

    def test_private_profile_never_replicates(self, tiny_config, private_profile):
        res = simulate(private_profile, DesignSpec.baseline(), tiny_config)
        assert res.replication_ratio == 0.0

    def test_shared_design_cuts_miss_rate(self, tiny_config, shared_profile):
        base = simulate(shared_profile, DesignSpec.baseline(), tiny_config)
        sh = simulate(shared_profile, DesignSpec.shared(8), tiny_config)
        assert sh.l1_miss_rate < base.l1_miss_rate

    def test_perfect_l1_hits_everything(self, tiny_config, shared_profile):
        spec = DesignSpec.baseline(perfect_l1=True)
        res = simulate(shared_profile, spec, tiny_config)
        assert res.l1_miss_rate == 0.0
        assert res.dram_accesses == 0

    def test_16x_cache_reduces_misses(self, tiny_config, shared_profile):
        base = simulate(shared_profile, DesignSpec.baseline(), tiny_config)
        big = simulate(shared_profile, DesignSpec.baseline(l1_size_mult=16.0), tiny_config)
        assert big.l1.misses < base.l1.misses

    def test_boost_speeds_up_clustered(self, tiny_config, shared_profile):
        plain = simulate(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        boosted = simulate(shared_profile, DesignSpec.clustered(8, 4, boost=2.0), tiny_config)
        assert boosted.cycles <= plain.cycles


class TestTrafficKinds:
    def test_atomics_skip_l1(self, tiny_config):
        prof = AppProfile(
            name="atomic-heavy", num_ctas=32, accesses_per_cta=32,
            shared_lines=64, shared_fraction=1.0, atomic_fraction=0.5,
            block_lines=4, block_repeats=1,
        )
        res = simulate(prof, DesignSpec.clustered(8, 4), tiny_config)
        assert res.atomics > 0
        # Atomics never probe the DC-L1 cache.
        assert res.l1.accesses >= res.loads
        assert res.l1.accesses < res.loads + res.atomics + res.stores + 1

    def test_bypass_traffic_reaches_l2(self, tiny_config):
        prof = AppProfile(
            name="bypass-heavy", num_ctas=32, accesses_per_cta=32,
            shared_lines=64, shared_fraction=1.0, bypass_fraction=0.4,
            block_lines=4, block_repeats=1,
        )
        res = simulate(prof, DesignSpec.clustered(8, 4), tiny_config)
        assert res.bypasses > 0
        assert res.l2.accesses >= res.bypasses

    def test_stores_write_through_to_l2(self, tiny_config, streaming_profile):
        res = simulate(streaming_profile, DesignSpec.baseline(), tiny_config)
        assert res.stores > 0
        assert res.l2.store_hits + res.l2.store_misses == res.stores


class TestLatencyKnobs:
    def test_latency_override_applies(self, tiny_gpu, shared_profile):
        slow = SimConfig(gpu=tiny_gpu, l1_latency_override=64.0)
        fast = SimConfig(gpu=tiny_gpu, l1_latency_override=0.0)
        r_slow = simulate(shared_profile, DesignSpec.baseline(), slow)
        r_fast = simulate(shared_profile, DesignSpec.baseline(), fast)
        assert r_fast.load_rtt_mean < r_slow.load_rtt_mean

    def test_dcl1_latency_reflects_aggregation(self, tiny_gpu):
        cfg = SimConfig(gpu=tiny_gpu)
        prof = AppProfile(name="t", num_ctas=8, accesses_per_cta=8,
                          shared_lines=16, shared_fraction=1.0,
                          block_lines=4, block_repeats=2)
        sys8 = GPUSystem(prof, DesignSpec.private(8), cfg)
        sys4 = GPUSystem(prof, DesignSpec.private(4), cfg)
        assert sys4.l1_banks[0].latency > sys8.l1_banks[0].latency


class TestAblationKnobs:
    def test_full_line_replies_add_noc1_traffic(self, tiny_gpu, shared_profile):
        lean = simulate(shared_profile, DesignSpec.clustered(8, 4),
                        SimConfig(gpu=tiny_gpu))
        fat = simulate(shared_profile, DesignSpec.clustered(8, 4),
                       SimConfig(gpu=tiny_gpu, full_line_noc1_replies=True))
        assert fat.total_flit_hops > lean.total_flit_hops
        assert fat.cycles >= lean.cycles

    def test_home_bits_strategy_runs(self, tiny_gpu, shared_profile):
        cfg = SimConfig(gpu=tiny_gpu, home_strategy="bits")
        res = simulate(shared_profile, DesignSpec.clustered(8, 4), cfg)
        assert res.total_requests == shared_profile.total_accesses

    def test_finite_node_queues_backpressure(self, tiny_gpu, shared_profile):
        free = simulate(shared_profile, DesignSpec.shared(8), SimConfig(gpu=tiny_gpu))
        tight = simulate(shared_profile, DesignSpec.shared(8),
                         SimConfig(gpu=tiny_gpu, dcl1_queue_depth=1))
        assert tight.node_queue_stalls > 0
        assert free.node_queue_stalls == 0
        assert tight.cycles >= free.cycles
        assert tight.total_requests == free.total_requests

    def test_finite_queues_audit_clean(self, tiny_gpu, shared_profile):
        from repro.sim.validation import audit

        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4),
                           SimConfig(gpu=tiny_gpu, dcl1_queue_depth=2))
        system.run()
        assert audit(system) == []

    def test_queue_depth_validation(self, tiny_gpu, shared_profile):
        with pytest.raises(ValueError):
            GPUSystem(shared_profile, DesignSpec.shared(8),
                      SimConfig(gpu=tiny_gpu, dcl1_queue_depth=0))

    def test_queue_depth_ignored_for_baseline(self, tiny_gpu, shared_profile):
        res = simulate(shared_profile, DesignSpec.baseline(),
                       SimConfig(gpu=tiny_gpu, dcl1_queue_depth=1))
        assert res.node_queue_stalls == 0

    def test_fifo_policy_runs_and_differs(self, tiny_gpu, shared_profile):
        lru = simulate(shared_profile, DesignSpec.baseline(), SimConfig(gpu=tiny_gpu))
        fifo = simulate(shared_profile, DesignSpec.baseline(),
                        SimConfig(gpu=tiny_gpu, l1_policy="fifo", l2_policy="fifo"))
        assert fifo.total_requests == lru.total_requests
        # Policies genuinely differ in behaviour (hit counts diverge).
        assert fifo.l1.hits != lru.l1.hits or fifo.l2.hits != lru.l2.hits


class TestScaledPlatform:
    def test_larger_platform_runs(self, shared_profile):
        gpu = dataclasses.replace(
            SimConfig().gpu, num_cores=24, num_l2_slices=12, num_channels=6
        )
        cfg = SimConfig(gpu=gpu)
        res = simulate(shared_profile, DesignSpec.clustered(12, 2, boost=2.0), cfg)
        assert res.total_requests == shared_profile.total_accesses
