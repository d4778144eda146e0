"""Tests for the request-timeline trace."""

import pytest

from repro.core.designs import DesignSpec
from repro.gpu.request import AccessKind
from repro.sim.system import GPUSystem
from repro.sim.trace_log import RequestTrace


def _traced_run(spec, config, profile):
    system = GPUSystem(profile, spec, config)
    trace = RequestTrace.attach(system, sample_every=1)
    res = system.run()
    return trace, res


class _TracedRunChecks:
    """Checks on one fully traced run; each subclass supplies the design
    through its ``traced_run`` fixture."""

    def test_records_every_load(self, traced_run):
        trace, res = traced_run
        assert len(trace) == res.loads

    def test_latencies_match_result_mean(self, traced_run):
        trace, res = traced_run
        lats = trace.latencies()
        assert sum(lats) / len(lats) == pytest.approx(res.load_rtt_mean, rel=1e-9)

    def test_percentiles_monotone(self, traced_run):
        trace, _ = traced_run
        p = trace.percentiles([0.1, 0.5, 0.9, 0.99])
        assert p[0.1] <= p[0.5] <= p[0.9] <= p[0.99]
        assert p[0.99] >= trace.percentiles([1.0])[1.0] * 0.5

    def test_served_at_accounting(self, traced_run):
        trace, res = traced_run
        counts = trace.served_at_counts()
        assert sum(counts.values()) == len(trace)
        assert counts["L1"] > 0  # shared profile gets DC-L1 hits

    def test_csv_round_trip(self, traced_run, tmp_path):
        trace, _ = traced_run
        path = trace.to_csv(tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("core,line,kind")
        assert len(lines) == len(trace) + 1


class TestTrace(_TracedRunChecks):
    @pytest.fixture
    def traced_run(self, tiny_config, shared_profile):
        return _traced_run(DesignSpec.clustered(8, 4), tiny_config, shared_profile)

    def test_sampling_reduces_volume(self, tiny_config, shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.baseline(), tiny_config)
        trace = RequestTrace.attach(system, sample_every=8)
        res = system.run()
        assert len(trace) == res.loads // 8

    def test_store_tracing_optional(self, tiny_config, streaming_profile):
        system = GPUSystem(streaming_profile, DesignSpec.baseline(), tiny_config)
        trace = RequestTrace.attach(
            system, kinds=(AccessKind.LOAD, AccessKind.STORE)
        )
        res = system.run()
        assert len(trace) == res.loads + res.stores

    def test_empty_trace_percentiles_raise(self):
        with pytest.raises(ValueError):
            RequestTrace().percentiles([0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestTrace(sample_every=0)
        t = RequestTrace()
        t.records.append(type("R", (), {"latency": 1.0})())
        with pytest.raises(ValueError):
            t.percentiles([1.5])

    def test_run_still_audits_clean(self, tiny_config, shared_profile):
        from repro.sim.validation import audit

        system = GPUSystem(shared_profile, DesignSpec.shared(8), tiny_config)
        RequestTrace.attach(system)
        system.run()
        assert audit(system) == []


class TestTraceOnFusedShape(_TracedRunChecks):
    """shared(8) is a fused shape, whose fused handlers schedule
    completions straight into the engine: attaching must move the system
    to scalar dispatch, or most completions bypass the trace."""

    @pytest.fixture
    def traced_run(self, tiny_config, shared_profile):
        return _traced_run(DesignSpec.shared(8), tiny_config, shared_profile)

    def test_rewiring_after_attach_keeps_the_trace(self, tiny_config,
                                                   shared_profile):
        system = GPUSystem(shared_profile, DesignSpec.shared(8), tiny_config)
        trace = RequestTrace.attach(system)
        system.force_scalar_dispatch()
        res = system.run()
        assert len(trace) == res.loads
