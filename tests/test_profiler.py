"""Unit tests for the per-handler event profiler (SimTurbo observability)."""

from repro.sim.engine import Engine
from repro.sim.profiler import EventProfiler


class _FakeClock:
    """Deterministic clock: each reading advances by a fixed step."""

    def __init__(self, step: float = 1.0):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _run_profiled(prof: EventProfiler) -> None:
    eng = Engine()
    eng.attach_profiler(prof)

    def fast(_):
        pass

    def slow(_):
        pass

    for t in (1.0, 2.0, 3.0):
        eng.schedule(t, fast, None)
    eng.schedule(4.0, slow, None)
    eng.run()


def test_counts_and_self_time_per_handler():
    prof = EventProfiler(clock=_FakeClock(step=0.5))
    _run_profiled(prof)
    assert prof.total_events == 4
    by_name = {r.handler: r for r in prof.rows()}
    fast_row = next(r for name, r in by_name.items() if "fast" in name)
    slow_row = next(r for name, r in by_name.items() if "slow" in name)
    assert fast_row.events == 3
    assert slow_row.events == 1
    # Every callback is bracketed by two clock readings of the fake
    # clock, so self-time is exactly one step per event.
    assert fast_row.self_s == 1.5
    assert slow_row.self_s == 0.5
    assert prof.total_self_time == 2.0
    assert fast_row.pct == 75.0


def test_rows_sorted_by_self_time_and_percentages_sum():
    prof = EventProfiler(clock=_FakeClock())
    _run_profiled(prof)
    rows = prof.rows()
    assert [r.self_s for r in rows] == sorted(
        (r.self_s for r in rows), reverse=True
    )
    assert abs(sum(r.pct for r in rows) - 100.0) < 1e-9


def test_events_per_s_uses_drain_wall_time():
    prof = EventProfiler(clock=_FakeClock(step=2.0))
    assert prof.events_per_s() == 0.0  # before any run
    _run_profiled(prof)
    assert prof.wall_time > 0.0
    assert prof.events_per_s() == prof.total_events / prof.wall_time


def test_render_contains_table_and_footer():
    prof = EventProfiler(clock=_FakeClock())
    _run_profiled(prof)
    text = prof.render()
    assert "handler" in text and "events/s" in text
    assert "total" in text
    # An untruncated table needs no coverage disclaimer.
    assert "hidden" not in text


def test_render_truncated_table_labels_its_coverage():
    """``render(top=N)`` used to print the 100% total row right under the
    truncated rows — a top-5 table read as if those 5 handlers were the
    whole profile.  Truncation now states what it hides."""
    prof = EventProfiler(clock=_FakeClock())
    _run_profiled(prof)  # two handlers
    top = prof.render(top=1)
    assert "top 1 of 2 handlers" in top
    assert "1 hidden" in top
    # the stated coverage is the shown rows' pct, not 100
    shown_pct = prof.rows()[0].pct
    assert f"({shown_pct:.1f}% of self-time)" in top
    # the total row still aggregates every handler (full event count)
    assert f"{prof.total_events:>10}" in top


def test_render_top_at_or_above_row_count_is_not_truncated():
    prof = EventProfiler(clock=_FakeClock())
    _run_profiled(prof)
    assert "hidden" not in prof.render(top=2)
    assert "hidden" not in prof.render(top=99)


def test_render_empty_profile_does_not_crash():
    text = EventProfiler().render()
    assert "handler" in text


# --------------------------------------------------- allocation attribution


def _run_alloc_profiled(prof: EventProfiler) -> None:
    """Two handlers with very different allocation appetites."""
    import tracemalloc

    eng = Engine()
    eng.attach_profiler(prof)
    keep = []

    def hungry(_):
        keep.append(bytearray(64 * 1024))

    def frugal(_):
        pass

    for t in (1.0, 2.0, 3.0):
        eng.schedule(t, hungry, None)
    eng.schedule(4.0, frugal, None)
    tracemalloc.start()
    try:
        eng.run()
    finally:
        tracemalloc.stop()


def test_trace_alloc_attributes_bytes_per_handler():
    prof = EventProfiler(clock=_FakeClock(), trace_alloc=True)
    _run_alloc_profiled(prof)
    assert prof.total_events == 4
    by_name = {r.handler: r for r in prof.rows()}
    hungry = next(r for name, r in by_name.items() if "hungry" in name)
    frugal = next(r for name, r in by_name.items() if "frugal" in name)
    # Each hungry event retains a 64 KiB bytearray; tracemalloc should
    # attribute at least that much net growth to each event.
    assert hungry.alloc_b_per_event >= 64 * 1024
    assert frugal.alloc_b_per_event < 1024
    # Timing attribution still works in the alloc-tracing drain.
    assert hungry.events == 3 and frugal.events == 1
    assert prof.total_self_time > 0.0


def test_trace_alloc_off_leaves_alloc_columns_zero():
    prof = EventProfiler(clock=_FakeClock())
    _run_profiled(prof)
    assert prof.alloc_bytes == {}
    assert all(r.alloc_b_per_event == 0.0 for r in prof.rows())
    assert "B/ev" not in prof.render()


def test_render_grows_alloc_column_when_traced():
    prof = EventProfiler(clock=_FakeClock(), trace_alloc=True)
    _run_alloc_profiled(prof)
    text = prof.render()
    assert "B/ev" in text


def test_profile_simulation_trace_alloc_is_bit_identical():
    from repro.core.designs import DesignSpec
    from repro.sim.config import SimConfig
    from repro.sim.profiler import profile_simulation
    from repro.workloads.suite import get_app

    app = get_app("P-2MM")
    spec = DesignSpec.shared(40)
    cfg = SimConfig(scale=0.05)
    plain, _ = profile_simulation(app, spec, cfg)
    traced, prof = profile_simulation(app, spec, cfg, trace_alloc=True)
    assert traced.fingerprint() == plain.fingerprint()
    # Scheduling itself allocates (heap tuples), so every handler that
    # ran should have an attribution entry.
    assert prof.alloc_bytes
    assert set(prof.alloc_bytes) == set(prof.counts)


def test_declined_feature_profiles_the_scalar_tier():
    """Every named design drains fused, so pin the scalar production tier
    on a feature the fusion declines: with Q1 credits the profile names
    the scalar tier and times the scalar handlers, no fused closure."""
    from repro.core.designs import DesignSpec
    from repro.sim.config import SimConfig
    from repro.sim.profiler import profile_simulation
    from repro.workloads.suite import get_app

    _, prof = profile_simulation(get_app("P-2MM"), DesignSpec.shared(40),
                                 SimConfig(scale=0.02, dcl1_queue_depth=4))
    assert prof.production_tier == "scalar"
    names = {row.handler for row in prof.rows()}
    assert "GPUSystem._wf_issue" in names
    assert not any("_make_fused_handlers" in name for name in names)
