"""Tests for the SimSanitizer runtime resource ledger.

The acceptance bar: an injected MSHR leak and an injected Q1
port-reservation leak must both be caught at drain and attributed to the
owning request, double-frees must raise at the call site, and a sanitized
run must be bit-identical to an unsanitized one.
"""

import math

import pytest

from repro.analysis.sanitizer import (
    ResourceLedger,
    SanitizerError,
    describe_owner,
)
from repro.cache.mshr import MSHRFile
from repro.core.designs import DesignSpec
from repro.gpu.request import AccessKind, MemoryRequest
from repro.noc.crossbar import Crossbar
from repro.sim.config import SimConfig, sanitize_env_enabled
from repro.sim.engine import Engine
from repro.sim.system import GPUSystem


class TestLedger:
    def test_acquire_release_roundtrip(self):
        ledger = ResourceLedger()
        ledger.acquire("mshr", 0x40, owner="req-a")
        assert ledger.outstanding() == 1
        assert ledger.outstanding("mshr") == 1
        hold = ledger.release("mshr", 0x40)
        assert hold.owner == "req-a"
        assert ledger.outstanding() == 0
        assert ledger.check_drained() == []

    def test_double_acquire_raises_with_holder(self):
        ledger = ResourceLedger()
        ledger.acquire("mshr", 1, owner="first")
        with pytest.raises(SanitizerError, match="double-acquire.*first"):
            ledger.acquire("mshr", 1, owner="second")

    def test_double_free_raises(self):
        ledger = ResourceLedger()
        ledger.acquire("port", "a")
        ledger.release("port", "a")
        with pytest.raises(SanitizerError, match="double-free"):
            ledger.release("port", "a")

    def test_leaks_reported_with_owner_and_history(self):
        clock = [0.0]
        ledger = ResourceLedger(clock=lambda: clock[0])
        req = MemoryRequest(0x1000, AccessKind.LOAD, 32, core_id=7)
        req.line = 0x20
        clock[0] = 12.0
        ledger.acquire("l1-mshr[3]", 0x20, owner=req)
        clock[0] = 40.0
        ledger.note("l1-mshr[3]", 0x20, "merged request(core=9)")
        findings = ledger.check_drained()
        assert len(findings) == 1
        assert "l1-mshr[3]" in findings[0]
        assert "core=7" in findings[0]
        assert "t=12.0" in findings[0]
        assert "merged request(core=9)" in findings[0]
        with pytest.raises(SanitizerError, match="leaked"):
            ledger.assert_drained()

    def test_describe_owner_for_requests_and_fallback(self):
        req = MemoryRequest(0x80, AccessKind.STORE, 32, core_id=3)
        req.line = 0x2
        assert "core=3" in describe_owner(req)
        assert "STORE" in describe_owner(req)
        assert describe_owner(None) == "<no owner>"
        assert describe_owner("plain") == "'plain'"

    def test_reservation_checks(self):
        ledger = ResourceLedger()
        ledger.check_reservation("xb[0->1]", 10.0, 4, 26.0)  # fine
        with pytest.raises(SanitizerError, match="bad start time"):
            ledger.check_reservation("xb[0->1]", float("nan"), 4, 26.0)
        with pytest.raises(SanitizerError, match="non-positive size"):
            ledger.check_reservation("xb[0->1]", 10.0, 0, 26.0)
        with pytest.raises(SanitizerError, match="runaway"):
            ledger.check_reservation("xb[0->1]", 10.0, 4, 10.0 + 2e9)

    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_env_enabled()


class TestEngineIntegration:
    def test_schedule_after_drain_flagged(self):
        eng = Engine()
        ledger = ResourceLedger(clock=lambda: eng.now)
        eng.attach_sanitizer(ledger)
        eng.schedule(1.0, lambda _: None)
        eng.run()
        with pytest.raises(SanitizerError, match="after drain"):
            eng.schedule(2.0, lambda _: None)

    def test_without_sanitizer_post_drain_schedule_allowed(self):
        eng = Engine()
        eng.schedule(1.0, lambda _: None)
        eng.run()
        eng.schedule(2.0, lambda _: None)  # legacy behaviour preserved


class TestMSHRIntegration:
    def test_allocate_release_mirrored(self):
        ledger = ResourceLedger()
        mshr = MSHRFile(4)
        mshr.ledger = ledger
        mshr.ledger_scope = "l1-mshr[0]"
        assert mshr.allocate(0x10, "req-a") == "new"
        assert ledger.outstanding("l1-mshr[0]") == 1
        assert mshr.allocate(0x10, "req-b") == "merged"
        (hold,) = ledger.holds()
        assert any("merged" in h for h in hold.history)
        mshr.release(0x10)
        assert ledger.outstanding() == 0

    def test_double_release_attributed(self):
        ledger = ResourceLedger()
        mshr = MSHRFile(4)
        mshr.ledger = ledger
        mshr.allocate(0x10, "req-a")
        mshr.release(0x10)
        with pytest.raises(SanitizerError, match="double-free"):
            mshr.release(0x10)

    def test_unsanitized_double_release_still_keyerror(self):
        mshr = MSHRFile(4)
        mshr.allocate(0x10, "req-a")
        mshr.release(0x10)
        with pytest.raises(KeyError):
            mshr.release(0x10)


class TestCrossbarIntegration:
    def test_bad_traverse_time_flagged(self):
        xb = Crossbar("xb", 2, 2, cycles_per_flit=1.0, latency=4.0)
        xb.attach_sanitizer(ResourceLedger())
        xb.traverse(0.0, 0, 1, 2)  # fine
        with pytest.raises(SanitizerError, match="bad start time"):
            xb.traverse(float("nan"), 0, 1, 2)

    def test_runaway_reservation_flagged(self):
        xb = Crossbar("xb", 1, 1, cycles_per_flit=1.0, latency=0.0)
        xb.attach_sanitizer(ResourceLedger())
        with pytest.raises(SanitizerError, match="runaway"):
            xb.traverse(0.0, 0, 0, 2_000_000_000)

    def test_disabled_crossbar_unchanged(self):
        # Without a ledger even an absurd reservation passes through
        # untouched (serialization on the in port, then the out port).
        xb = Crossbar("xb", 1, 1, cycles_per_flit=1.0, latency=0.0)
        assert xb.traverse(0.0, 0, 0, 2_000_000_000) == 4_000_000_000.0


class TestSystemIntegration:
    def test_sanitized_run_is_bit_identical(self, tiny_config, shared_profile):
        spec = DesignSpec.clustered(8, 4)
        plain = GPUSystem(shared_profile, spec, tiny_config).run()
        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True)
        sanitized = GPUSystem(shared_profile, spec, cfg).run()
        assert sanitized.cycles == plain.cycles
        assert sanitized.loads == plain.loads
        assert sanitized.l1_miss_rate == plain.l1_miss_rate

    def test_clean_run_ledger_balances(self, tiny_config, shared_profile):
        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True,
                        dcl1_queue_depth=4)
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), cfg)
        system.run()
        ledger = system._ledger
        assert ledger is not None
        assert ledger.acquires == ledger.releases > 0
        assert ledger.outstanding() == 0

    def test_env_var_enables_sanitizer(self, monkeypatch, tiny_gpu, shared_profile):
        # The environment is resolved once, at SimConfig construction
        # (never by the sim core at run time — SimPure SP401), so the
        # config must be built after the env var changes.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cfg = SimConfig(gpu=tiny_gpu)
        assert cfg.sanitize is True
        system = GPUSystem(shared_profile, DesignSpec.baseline(), cfg)
        assert system._ledger is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        cfg = SimConfig(gpu=tiny_gpu)
        assert cfg.sanitize is False
        system = GPUSystem(shared_profile, DesignSpec.baseline(), cfg)
        assert system._ledger is None
        # Explicit beats environment in both directions.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert SimConfig(gpu=tiny_gpu, sanitize=False).sanitize is False

    def test_injected_mshr_leak_caught_and_attributed(
        self, monkeypatch, tiny_config, streaming_profile
    ):
        def leaky_release(self, line):
            # The classic leak: the fill arrives but the entry is never
            # freed and its waiters are dropped on the floor.  Without the
            # sanitizer this drains into an opaque "requests outstanding"
            # RuntimeError; with it, every stuck entry is named.
            return []

        monkeypatch.setattr(MSHRFile, "release", leaky_release)
        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True)
        system = GPUSystem(streaming_profile, DesignSpec.clustered(8, 4), cfg)
        with pytest.raises(SanitizerError) as exc:
            system.run()
        msg = str(exc.value)
        assert "leaked" in msg
        assert "mshr" in msg
        assert "request(core=" in msg  # attributed to the owning request

    def test_injected_port_reservation_leak_caught_and_attributed(
        self, monkeypatch, tiny_config, shared_profile
    ):
        # Drop every Q1 slot release: with a deep queue the run still
        # completes, and the sanitizer reports each slot never given back.
        monkeypatch.setattr(GPUSystem, "_release_node", lambda self, req: None)
        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True,
                        dcl1_queue_depth=100_000)
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), cfg)
        with pytest.raises(SanitizerError) as exc:
            system.run()
        msg = str(exc.value)
        assert "leaked" in msg
        assert "dcl1-q1" in msg
        assert "request(core=" in msg

    def test_cache_overflow_caught_at_install_time(self, tiny_config, shared_profile):
        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True)
        system = GPUSystem(shared_profile, DesignSpec.baseline(), cfg)
        cache = system.l1_caches[0]
        # Corrupt one set past its associativity behind the cache's back,
        # then install into it: the sanitizer flags it at install time.
        target_set = cache._sets[cache.set_index(0)]
        line = 0
        while len(target_set) <= cache.assoc:
            target_set.insert(line)
            line += cache.num_sets
        with pytest.raises(SanitizerError, match="holds"):
            cache.install(line)


class TestLiveAudit:
    def test_live_audit_runs_mid_flight(self, tiny_config, shared_profile):
        from repro.sim.validation import live_audit

        cfg = SimConfig(gpu=tiny_config.gpu, scale=1.0, sanitize=True)
        system = GPUSystem(shared_profile, DesignSpec.clustered(8, 4), cfg)
        assert live_audit(system) == []  # pre-run: nothing outstanding yet

    def test_live_audit_flags_negative_outstanding(self, tiny_config, shared_profile):
        from repro.sim.validation import live_audit

        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        system.outstanding = -1
        assert any("negative" in f for f in live_audit(system))

    def test_live_audit_flags_directory_divergence(self, tiny_config, shared_profile):
        from repro.sim.validation import live_audit

        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        system.run()
        system.l1_caches[0]._sets[0].insert(10**9)  # resident but undirected
        assert any("directory" in f for f in live_audit(system))


def test_engine_rejects_nonfinite_times():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(math.nan, lambda _: None)
    with pytest.raises(ValueError):
        eng.schedule(math.inf, lambda _: None)
    with pytest.raises(ValueError):
        eng.schedule(-1.0, lambda _: None)
    with pytest.raises(ValueError):
        eng.schedule_in(math.nan, lambda _: None)
