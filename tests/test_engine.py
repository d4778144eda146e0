"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import Engine


def test_runs_events_in_time_order():
    order = []
    eng = Engine()
    eng.schedule(5.0, order.append, "c")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(3.0, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 5.0


def test_ties_break_fifo():
    order = []
    eng = Engine()
    for tag in range(10):
        eng.schedule(2.0, order.append, tag)
    eng.run()
    assert order == list(range(10))


def test_schedule_in_is_relative():
    seen = []
    eng = Engine()

    def later(_):
        eng.schedule_in(4.0, seen.append, eng.now + 4.0)

    eng.schedule(2.0, later, None)
    eng.run()
    assert seen == [6.0]
    assert eng.now == 6.0


def test_events_can_schedule_more_events():
    count = [0]
    eng = Engine()

    def chain(n):
        count[0] += 1
        if n > 0:
            eng.schedule_in(1.0, chain, n - 1)

    eng.schedule(0.0, chain, 9)
    eng.run()
    assert count[0] == 10
    assert eng.now == 9.0


def test_scheduling_in_the_past_raises():
    eng = Engine()
    eng.schedule(5.0, lambda _: None, None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule(1.0, lambda _: None, None)


def test_event_budget_guards_livelock():
    eng = Engine(max_events=100)

    def forever(_):
        eng.schedule_in(1.0, forever, None)

    eng.schedule(0.0, forever, None)
    with pytest.raises(RuntimeError, match="event budget"):
        eng.run()


def test_run_until_stops_at_deadline():
    seen = []
    eng = Engine()
    for t in (1.0, 2.0, 3.0, 4.0):
        eng.schedule(t, seen.append, t)
    eng.run_until(2.5)
    assert seen == [1.0, 2.0]
    assert eng.now == 2.5
    eng.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_empty_property():
    eng = Engine()
    assert eng.empty()
    eng.schedule(1.0, lambda _: None, None)
    assert not eng.empty()
    eng.run()
    assert eng.empty()


def test_priority_breaks_timestamp_ties():
    order = []
    eng = Engine()
    eng.schedule(2.0, order.append, "late", priority=1)
    eng.schedule(2.0, order.append, "default")
    eng.schedule(2.0, order.append, "early", priority=-1)
    eng.run()
    assert order == ["early", "default", "late"]


def test_equal_priority_stays_fifo():
    order = []
    eng = Engine()
    for tag in range(6):
        eng.schedule(2.0, order.append, tag, priority=-1)
    eng.run()
    assert order == list(range(6))


def test_priority_does_not_cross_timestamps():
    order = []
    eng = Engine()
    eng.schedule(1.0, order.append, "t1", priority=5)
    eng.schedule(2.0, order.append, "t2", priority=-5)
    eng.run()
    assert order == ["t1", "t2"]


def test_run_until_full_drain_sets_drained_flag():
    eng = Engine()
    eng.schedule(1.0, lambda _: None, None)
    eng.run_until(10.0)
    assert eng._drained


def test_run_until_partial_drain_clears_drained_flag():
    eng = Engine()
    eng.schedule(1.0, lambda _: None, None)
    eng.run()
    assert eng._drained
    eng.schedule(5.0, lambda _: None, None)
    eng.run_until(3.0)  # leaves the 5.0 event queued
    assert not eng._drained
    eng.run()
    assert eng._drained


def test_run_until_inf_drains_fully_without_bricking():
    """Regression: ``run_until(float("inf"))`` used to assign ``now = inf``,
    after which every later ``schedule()`` raised "must be finite and not
    in the past" — the engine was permanently bricked.  A non-finite
    deadline now means "no deadline": full drain, ``now`` left at the
    last event time, engine still schedulable."""
    seen = []
    eng = Engine()
    for t in (1.0, 2.0, 3.0):
        eng.schedule(t, seen.append, t)
    end = eng.run_until(float("inf"))
    assert seen == [1.0, 2.0, 3.0]
    assert end == 3.0 and eng.now == 3.0
    assert math.isfinite(eng.now)
    # the brick: this schedule used to raise
    eng.schedule(4.0, seen.append, 4.0)
    eng.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_run_until_inf_on_empty_engine_keeps_time_finite():
    eng = Engine()
    assert eng.run_until(float("inf")) == 0.0
    assert eng.now == 0.0
    eng.schedule(1.0, lambda _: None, None)  # must not raise
    eng.run()


@pytest.mark.parametrize("deadline", [float("nan"), float("-inf")])
def test_run_until_other_nonfinite_deadlines_mean_no_deadline(deadline):
    """The other half of the normalization: ``nan`` and ``-inf`` can't be
    meaningful deadlines either (``now <= nan`` is always false, and a
    ``-inf`` deadline would "complete" without processing anything while
    claiming time went backwards) — both get run() semantics instead of
    being assigned to ``now``."""
    seen = []
    eng = Engine()
    for t in (1.0, 2.0):
        eng.schedule(t, seen.append, t)
    end = eng.run_until(deadline)
    assert seen == [1.0, 2.0]
    assert end == 2.0 and eng.now == 2.0
    eng.schedule(3.0, seen.append, 3.0)
    eng.run()
    assert seen == [1.0, 2.0, 3.0]


def test_run_until_finite_deadline_still_advances_now():
    """The normalization must not leak into the finite case: a finite
    deadline past the last event still fast-forwards ``now`` to it."""
    eng = Engine()
    eng.schedule(1.0, lambda _: None, None)
    assert eng.run_until(10.0) == 10.0
    assert eng.now == 10.0


def test_shuffle_mode_is_deterministic_per_seed():
    def outcome(seed):
        order = []
        eng = Engine(shuffle_seed=seed)

        def a(_):
            order.append("a")

        def b(_):
            order.append("b")

        def c(_):
            order.append("c")

        for cb in (a, b, c):
            eng.schedule(1.0, cb)
        eng.run()
        return order

    assert outcome(3) == outcome(3)
    assert sorted(outcome(3)) == ["a", "b", "c"]
    # Some seed must produce a non-FIFO order, else shuffle is a no-op.
    assert any(outcome(s) != ["a", "b", "c"] for s in range(8))


def test_shuffle_respects_priority_boundaries():
    order = []
    eng = Engine(shuffle_seed=1)

    def first(_):
        order.append("first")

    def other(_):
        order.append("other")

    eng.schedule(1.0, other)
    eng.schedule(1.0, first, priority=-1)
    eng.run()
    assert order == ["first", "other"]
    assert eng.shuffled_batches == 0  # both batches are singletons


def test_shuffle_counts_batches_and_pairs():
    eng = Engine(shuffle_seed=1)

    def a(_):
        pass

    def b(_):
        pass

    eng.schedule(1.0, a)
    eng.schedule(1.0, b)
    eng.schedule(2.0, a)  # singleton: not a batch
    eng.run()
    assert eng.shuffled_batches == 1
    assert sum(eng.batch_pairs.values()) == 1


# ------------------------------------------------ run_until instrumentation

class _CountingWatchdog:
    """Minimal watchdog double: records every engine callback."""

    def __init__(self):
        self.events = 0
        self.advances = 0

    def advanced(self, time):
        self.advances += 1

    def event(self, time):
        self.events += 1


def test_run_until_feeds_the_watchdog():
    """Deadline-bounded drains must route through the watchdog loop;
    run_until used to silently bypass every instrumentation layer."""
    wd = _CountingWatchdog()
    eng = Engine()
    eng.attach_watchdog(wd)
    for t in (1.0, 2.0, 3.0, 4.0):
        eng.schedule(t, lambda _: None, None)
    eng.run_until(2.5)
    assert wd.events == 2
    assert wd.advances == 2
    eng.run()
    assert wd.events == 4


def test_run_until_feeds_the_profiler():
    from repro.sim.profiler import EventProfiler

    prof = EventProfiler()
    eng = Engine()
    eng.attach_profiler(prof)
    for t in (1.0, 2.0, 3.0):
        eng.schedule(t, lambda _: None, None)
    eng.run_until(2.5)
    assert prof.total_events == 2
    eng.run()
    assert prof.total_events == 3


def test_run_until_feeds_the_shuffle_rng():
    eng = Engine(shuffle_seed=7)
    a = []
    b = []
    eng.schedule(1.0, a.append, 1)
    eng.schedule(1.0, b.append, 1)
    eng.run_until(2.0)
    assert eng.shuffled_batches == 1
    assert len(eng.batch_pairs) == 1


DRAIN_LOOPS = ["plain", "watchdog", "profiler", "shuffle", "all"]


def _engine(instrument, **kwargs):
    """An engine that drains through the named loop ("all" attaches the
    shuffle seed, the watchdog and the profiler together)."""
    shuffled = instrument in ("shuffle", "all")
    eng = Engine(shuffle_seed=3 if shuffled else None, **kwargs)
    if instrument in ("watchdog", "all"):
        eng.attach_watchdog(_CountingWatchdog())
    if instrument in ("profiler", "all"):
        from repro.sim.profiler import EventProfiler

        eng.attach_profiler(EventProfiler())
    return eng


@pytest.mark.parametrize("instrument", DRAIN_LOOPS)
def test_event_budget_is_enforced_in_every_drain_loop(instrument):
    """One budget check, one message, every loop (including under a
    deadline — run_until used to carry its own diverging copy)."""
    eng = _engine(instrument, max_events=50)

    def forever(_):
        eng.schedule_in(1.0, forever, None)

    eng.schedule(0.0, forever, None)
    with pytest.raises(RuntimeError, match="event budget"):
        eng.run_until(1e9)
    assert eng.events_processed == 51  # counter survives the raise


@pytest.mark.parametrize("instrument", DRAIN_LOOPS)
def test_raising_callback_requeues_the_rest_of_its_bucket(instrument):
    """A callback that raises mid-bucket loses no other event: the
    bucket's unprocessed tail is re-queued and the next run drains it."""
    eng = _engine(instrument)
    ran = []

    def handler(tag):
        # One distinct function per event, so shuffle mode permutes them;
        # whichever event runs second raises, whatever the permutation.
        def call(_):
            ran.append(tag)
            if len(ran) == 2:
                raise ValueError("boom")

        return call

    for tag in range(6):
        eng.schedule(1.0, handler(tag), None)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    eng.run()
    assert sorted(ran) == [0, 1, 2, 3, 4, 5]
    assert eng.empty()


def test_instrumented_drains_preserve_event_order():
    """Watchdog and profiler loops must not change dispatch order."""

    def trace(make_engine):
        order = []
        eng = make_engine()
        eng.schedule(2.0, order.append, "b")
        eng.schedule(1.0, order.append, "a")
        eng.schedule(2.0, order.append, "c", priority=-1)
        eng.run()
        return order

    def watched():
        eng = Engine()
        eng.attach_watchdog(_CountingWatchdog())
        return eng

    def profiled():
        from repro.sim.profiler import EventProfiler

        eng = Engine()
        eng.attach_profiler(EventProfiler())
        return eng

    plain = trace(Engine)
    assert trace(watched) == plain
    assert trace(profiled) == plain


def test_every_attached_instrument_sees_every_event():
    """Attaching one instrument must not silence another: the watchdog
    and the profiler each count every event of a run they share."""
    from repro.sim.profiler import EventProfiler

    eng = Engine()
    wd = _CountingWatchdog()
    prof = EventProfiler()
    eng.attach_watchdog(wd)
    eng.attach_profiler(prof)
    for t in (1.0, 1.0, 2.0, 3.0, 3.0, 3.0):
        eng.schedule(t, lambda _: None, None)
    eng.run()
    assert eng.events_processed == 6
    assert wd.events == 6 and wd.advances == 3
    assert prof.total_events == 6
