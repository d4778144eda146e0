"""Runtime stall watchdog: livelock/deadlock detection + wait-graph dump."""

import dataclasses

import pytest

from repro.core.designs import DesignSpec
from repro.sim.config import SimConfig, watchdog_env_enabled
from repro.sim.engine import Engine
from repro.sim.system import GPUSystem, simulate
from repro.sim.watchdog import (
    SimStallError,
    StallWatchdog,
    WaitGraph,
    build_wait_graph,
)


class LeakySystem(GPUSystem):
    """A deliberately broken model: NoC#1 Q1 credits are never returned."""

    def _release_node(self, req):
        pass


class TestDeadlockDetection:
    def test_credit_leak_raises_stall_error(self, tiny_config, shared_profile):
        cfg = dataclasses.replace(tiny_config, watchdog=True, dcl1_queue_depth=1)
        system = LeakySystem(shared_profile, DesignSpec.shared(8), cfg)
        with pytest.raises(SimStallError) as exc:
            system.run()
        assert "still in flight" in str(exc.value)

    def test_wait_graph_names_starved_resource_and_owner(
        self, tiny_config, shared_profile
    ):
        cfg = dataclasses.replace(tiny_config, watchdog=True, dcl1_queue_depth=1)
        system = LeakySystem(shared_profile, DesignSpec.shared(8), cfg)
        with pytest.raises(SimStallError) as exc:
            system.run()
        graph = exc.value.wait_graph
        assert graph is not None and not graph.empty
        text = str(exc.value)
        # The dump attributes the stall: which resource starved, and which
        # request holds the credits everyone is waiting on.
        assert "dcl1-q1" in text
        assert "request(core=" in text
        assert "starved resources" in text

    def test_without_watchdog_leak_is_an_opaque_count_mismatch(
        self, tiny_config, shared_profile
    ):
        # Baseline behaviour: the same broken model without the watchdog
        # only trips the bare conservation check — no attribution.
        cfg = dataclasses.replace(tiny_config, dcl1_queue_depth=1)
        system = LeakySystem(shared_profile, DesignSpec.shared(8), cfg)
        with pytest.raises(RuntimeError) as exc:
            system.run()
        assert not isinstance(exc.value, SimStallError)
        assert "requests outstanding" in str(exc.value)


class TestBitReproducibility:
    def test_watchdog_on_is_bit_identical_to_off(
        self, tiny_config, shared_profile
    ):
        designs = [
            DesignSpec.baseline(),
            DesignSpec.private(8),
            DesignSpec.shared(8),
            DesignSpec.clustered(8, 4, boost=2.0),
        ]
        on = dataclasses.replace(tiny_config, watchdog=True)
        for design in designs:
            plain = simulate(shared_profile, design, tiny_config)
            watched = simulate(shared_profile, design, on)
            assert watched.fingerprint() == plain.fingerprint(), design.label


class TestLivelockTriggers:
    def test_same_cycle_limit_trips(self):
        engine = Engine()
        engine.attach_watchdog(
            StallWatchdog(same_cycle_limit=50, inflight=lambda: 1)
        )

        def spin(_):
            engine.schedule(engine.now, spin)  # same-cycle forever

        engine.schedule(0.0, spin)
        with pytest.raises(SimStallError) as exc:
            engine.run()
        assert "same-cycle livelock" in str(exc.value)

    def test_completion_window_trips(self):
        engine = Engine()
        engine.attach_watchdog(StallWatchdog(window=10.0, inflight=lambda: 1))

        def tick(_):
            engine.schedule(engine.now + 1.0, tick)  # time moves, nothing completes

        engine.schedule(0.0, tick)
        with pytest.raises(SimStallError) as exc:
            engine.run()
        assert "no request completed" in str(exc.value)

    def test_progress_resets_the_window(self):
        engine = Engine()
        watchdog = StallWatchdog(window=10.0, inflight=lambda: 1)
        engine.attach_watchdog(watchdog)

        def tick(_):
            watchdog.progress(engine.now)  # a completion each cycle
            if engine.now < 100.0:
                engine.schedule(engine.now + 1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()
        assert watchdog.completions > 50

    def test_window_ignored_when_nothing_in_flight(self):
        engine = Engine()
        engine.attach_watchdog(StallWatchdog(window=10.0, inflight=lambda: 0))

        def tick(_):
            if engine.now < 100.0:
                engine.schedule(engine.now + 1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()  # a long quiet tail is fine when no requests are live

    def test_drained_with_zero_inflight_is_a_no_op(self):
        StallWatchdog(inflight=lambda: 0).drained(123.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            StallWatchdog(window=0.0)
        with pytest.raises(ValueError):
            StallWatchdog(same_cycle_limit=0)


class TestConfiguration:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        assert watchdog_env_enabled() is False
        monkeypatch.setenv("REPRO_WATCHDOG", "0")
        assert watchdog_env_enabled() is False
        monkeypatch.setenv("REPRO_WATCHDOG", "1")
        assert watchdog_env_enabled() is True

    def test_config_flag_attaches_watchdog_and_ledger(
        self, tiny_config, shared_profile
    ):
        cfg = dataclasses.replace(tiny_config, watchdog=True)
        system = GPUSystem(shared_profile, DesignSpec.shared(8), cfg)
        assert system._watchdog is not None
        assert system._ledger is not None  # attribution needs the ledger

    def test_off_by_default(self, tiny_gpu, shared_profile, monkeypatch):
        # REPRO_WATCHDOG is resolved at SimConfig construction, so the
        # config must be built after the env var is cleared.
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        cfg = SimConfig(gpu=tiny_gpu)
        assert cfg.watchdog is False
        system = GPUSystem(shared_profile, DesignSpec.shared(8), cfg)
        assert system._watchdog is None

    def test_env_var_resolved_at_construction(self, tiny_gpu, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "1")
        assert SimConfig(gpu=tiny_gpu).watchdog is True
        # Explicit beats environment.
        assert SimConfig(gpu=tiny_gpu, watchdog=False).watchdog is False


class TestWaitGraph:
    def test_healthy_system_snapshot_is_quiet(self, tiny_config, shared_profile):
        cfg = dataclasses.replace(tiny_config, watchdog=True)
        system = GPUSystem(shared_profile, DesignSpec.shared(8), cfg)
        system.run()
        graph = build_wait_graph(system)
        assert graph.starved == []
        assert graph.waits == []

    def test_empty_graph_renders_placeholder(self):
        graph = WaitGraph(now=0.0)
        assert graph.empty
        assert "no holds or waiters" in graph.render()

    def test_render_caps_section_length(self):
        graph = WaitGraph(
            now=1.0, holds=[f"holder {i}" for i in range(100)]
        )
        text = graph.render()
        assert "... and" in text and "more" in text
        assert text.count("holder ") < 100
