"""Tests for the post-run invariant auditor and the sweep-grid
pre-flight validator."""

import dataclasses

import pytest

from repro.core.designs import DesignSpec
from repro.sim.system import GPUSystem
from repro.sim.validation import (
    GridValidationError,
    assert_clean,
    audit,
    validate_grid,
)


class TestAudit:
    def test_clean_run_has_no_findings(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        system.run()
        assert audit(system) == []
        assert_clean(system)

    def test_every_design_audits_clean(self, tiny_config, streaming_profile):
        for spec in (
            DesignSpec.baseline(),
            DesignSpec.private(8),
            DesignSpec.shared(8),
            DesignSpec.cdxbar(),
            DesignSpec.single_l1(),
            DesignSpec.baseline(perfect_l1=True),
        ):
            system = GPUSystem(streaming_profile, spec, tiny_config)
            system.run()
            assert audit(system) == [], spec.label

    def test_unrun_system_flagged(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        findings = audit(system)
        assert any("has not run" in f for f in findings)
        with pytest.raises(AssertionError):
            assert_clean(system)

    def test_corrupted_counters_detected(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        system.run()
        system.result.loads += 5  # fake a conservation bug
        findings = audit(system)
        assert any("issued" in f for f in findings)

    def test_replication_bound_violation_detected(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.shared(8), tiny_config)
        system.run()
        system.result.replication_ratio = 0.5  # impossible for Sh
        findings = audit(system)
        assert any("fully shared" in f for f in findings)


class TestAuditFailurePaths:
    """Deliberately corrupt a finished system and assert each audit
    invariant fires — the auditor itself needs coverage, or a silently
    broken check hides real conservation bugs."""

    @pytest.fixture
    def finished(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), tiny_config)
        system.run()
        return system

    def test_outstanding_requests_flagged(self, finished):
        finished.outstanding = 3
        findings = audit(finished)
        assert any("3 requests still outstanding" in f for f in findings)

    def test_undrained_event_queue_flagged(self, finished):
        # When the sanitizer is on (e.g. REPRO_SANITIZE=1 test runs) it flags
        # post-drain scheduling at the call site; detach it so this test
        # exercises the post-run audit path instead.
        finished.engine.attach_sanitizer(None)
        finished.engine.schedule(finished.engine.now + 10.0, lambda _: None)
        findings = audit(finished)
        assert any("event queue not drained" in f for f in findings)

    def test_conservation_mismatch_flagged(self, finished):
        finished.result.total_requests  # sanity: property exists
        finished.result.loads += 7  # inflate issued count past the trace
        findings = audit(finished)
        assert any("issued" in f and "trace" in f for f in findings)

    def test_missing_rtt_measurement_flagged(self, finished):
        finished.result.load_rtt_count -= 1
        findings = audit(finished)
        assert any("rtt measured for" in f for f in findings)

    def test_live_core_flagged(self, finished):
        finished.cores[0].active_wavefronts = 2
        findings = audit(finished)
        assert any("live wavefronts" in f for f in findings)

    def test_undrained_mshr_flagged(self, finished):
        from repro.cache.mshr import MSHREntry

        finished.l1_mshrs[0]._entries[0x123] = MSHREntry(0x123)
        findings = audit(finished)
        assert any("MSHR" in f and "not drained" in f for f in findings)

    def test_parked_node_request_flagged(self, tiny_config, shared_profile):
        from repro.sim.config import SimConfig

        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, dcl1_queue_depth=4)
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), cfg)
        system.run()
        system._node_waiters[0].append(object())
        findings = audit(system)
        assert any("parked requests" in f for f in findings)

    def test_unreturned_q1_credit_flagged(self, tiny_config, shared_profile):
        from repro.sim.config import SimConfig

        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, dcl1_queue_depth=4)
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), cfg)
        system.run()
        assert audit(system) == []
        system._node_credits[0] += 1  # a double release leaves one extra
        assert audit(system) == [
            "DC-L1 node 0 holds 5 Q1 credits at drain, not 4"]

    def test_write_evict_imbalance_flagged(self, finished):
        finished.result.l1.write_evicts += 1
        findings = audit(finished)
        assert any("write-evict accounting broken" in f for f in findings)

    def test_over_capacity_flagged(self, finished):
        cache = finished.l1_caches[0]
        for line in range(0, (cache.num_lines + cache.num_sets) * cache.num_sets,
                          cache.num_sets):
            cache._sets[0].insert(line)
        findings = audit(finished)
        assert any("over capacity" in f for f in findings)

    def test_utilization_out_of_range_flagged(self, finished):
        finished.result.dram_util_mean = 1.5
        findings = audit(finished)
        assert any("dram_util_mean out of [0,1]" in f for f in findings)

    def test_assert_clean_lists_every_finding(self, finished):
        finished.outstanding = 1
        finished.result.dram_util_mean = -0.1
        with pytest.raises(AssertionError) as exc:
            assert_clean(finished)
        msg = str(exc.value)
        assert "still outstanding" in msg
        assert "dram_util_mean" in msg


class TestValidateGrid:
    """Pre-flight validation of resolved (profile, spec, config) grids."""

    @pytest.fixture
    def point(self, tiny_config, shared_profile):
        return (shared_profile, DesignSpec.shared(8), tiny_config)

    def test_valid_grid_returns_keys(self, point, tiny_config, shared_profile):
        other = (shared_profile, DesignSpec.baseline(), tiny_config)
        keys = validate_grid([point, other])
        assert len(keys) == 2 and keys[0] != keys[1]
        assert all(isinstance(k, str) and len(k) == 64 for k in keys)

    def test_non_tuple_point_rejected(self, point):
        with pytest.raises(GridValidationError, match="triple"):
            validate_grid([point, "not-a-point"])

    def test_wrong_types_rejected(self, point, tiny_config, shared_profile):
        bad = (tiny_config, DesignSpec.shared(8), shared_profile)  # swapped
        with pytest.raises(GridValidationError) as exc:
            validate_grid([bad])
        msg = str(exc.value)
        assert "profile is SimConfig" in msg and "config is AppProfile" in msg

    def test_nonpositive_scale_rejected(self, point):
        profile, spec, cfg = point
        bad = (profile, spec, dataclasses.replace(cfg, scale=0.0))
        with pytest.raises(GridValidationError, match="scale must be > 0"):
            validate_grid([bad])

    def test_duplicates_rejected_with_indices(self, point, tiny_config,
                                              shared_profile):
        other = (shared_profile, DesignSpec.baseline(), tiny_config)
        with pytest.raises(GridValidationError) as exc:
            validate_grid([point, other, point])
        assert "point 2" in str(exc.value) and "duplicates point 0" in str(exc.value)
        assert "sim_cache_key" in str(exc.value)

    def test_collapse_mode_allows_duplicates(self, point):
        keys = validate_grid([point, point], on_duplicate="collapse")
        assert keys[0] == keys[1]

    def test_all_problems_accumulate(self, point, tiny_config, shared_profile):
        profile, spec, cfg = point
        bad_scale = (profile, DesignSpec.baseline(),
                     dataclasses.replace(cfg, scale=-1.0))
        with pytest.raises(GridValidationError) as exc:
            validate_grid([point, bad_scale, point, ()])
        problems = exc.value.problems
        assert len(problems) == 3  # bad scale + duplicate + bad shape
        assert any("scale" in p for p in problems)
        assert any("duplicates" in p for p in problems)

    def test_bad_mode_rejected(self, point):
        with pytest.raises(ValueError, match="on_duplicate"):
            validate_grid([point], on_duplicate="whatever")
