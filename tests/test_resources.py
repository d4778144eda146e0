"""Unit tests for reservation servers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import Server, ServerGroup


class TestServer:
    def test_idle_server_serves_immediately(self):
        s = Server("s", service=2.0, latency=10.0)
        assert s.reserve(5.0) == 17.0  # start 5, busy 2, latency 10

    def test_back_to_back_queueing(self):
        s = Server("s", service=2.0)
        assert s.reserve(0.0) == 2.0
        # Arrives while busy: queued behind the first transaction.
        assert s.reserve(0.0) == 4.0
        assert s.reserve(1.0) == 6.0

    def test_size_scales_occupancy(self):
        s = Server("s", service=2.0, latency=1.0)
        assert s.reserve(0.0, size=4) == 9.0  # 8 busy + 1 latency
        assert s.next_free == 8.0

    def test_gap_resets_queue(self):
        s = Server("s", service=2.0)
        s.reserve(0.0)
        assert s.reserve(100.0) == 102.0

    def test_busy_accounting_and_utilization(self):
        s = Server("s", service=2.0)
        s.reserve(0.0)
        s.reserve(0.0)
        assert s.busy_cycles == 4.0
        assert s.num_served == 2
        assert s.utilization(8.0) == 0.5
        assert s.utilization(2.0) == 1.0  # clamped
        assert s.utilization(0.0) == 0.0

    def test_peek_start_does_not_reserve(self):
        s = Server("s", service=2.0)
        s.reserve(0.0)
        assert s.peek_start(0.0) == 2.0
        assert s.peek_start(5.0) == 5.0
        assert s.num_served == 1

    def test_reset(self):
        s = Server("s", service=2.0)
        s.reserve(0.0)
        s.reset()
        assert s.next_free == 0.0
        assert s.busy_cycles == 0.0
        assert s.num_served == 0

    def test_negative_timing_rejected(self):
        with pytest.raises(ValueError):
            Server("bad", service=-1.0)
        with pytest.raises(ValueError):
            Server("bad", service=1.0, latency=-1.0)


class TestServerGroup:
    def test_indexing_and_len(self):
        g = ServerGroup("g", 4, service=1.0)
        assert len(g) == 4
        assert g[2].name == "g[2]"
        assert len(list(g)) == 4

    def test_max_and_mean_utilization(self):
        g = ServerGroup("g", 2, service=1.0)
        g[0].reserve(0.0)
        g[0].reserve(0.0)
        g[1].reserve(0.0)
        assert g.max_utilization(4.0) == pytest.approx(0.5)

    def test_total_served(self):
        g = ServerGroup("g", 3, service=1.0)
        g[0].reserve(0.0)
        g[2].reserve(0.0)
        assert g.total_served() == 2

    def test_reset_clears_all(self):
        g = ServerGroup("g", 2, service=1.0)
        g[0].reserve(0.0)
        g.reset()
        assert g.total_served() == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ServerGroup("g", 0, service=1.0)


class _RecordingLedger:
    """Minimal stand-in for ResourceLedger.check_reservation."""

    def __init__(self):
        self.calls = []

    def check_reservation(self, name, start, size, completion):
        self.calls.append((name, start, size, completion))


class TestHolderAttribution:
    """The sanitizer/watchdog mirror: who a camped port is serving."""

    def test_reserve_with_owner_records_holder(self):
        s = Server("s", service=2.0)
        req = object()
        s.reserve(0.0, owner=req)
        assert s.holder is req
        assert s.holder_since == 0.0
        assert s.current_holder(1.0) is req

    def test_holder_expires_with_the_reservation(self):
        s = Server("s", service=2.0)
        s.reserve(0.0, owner="req")
        assert s.current_holder(2.0) is None  # next_free == 2.0: idle again

    def test_ownerless_reserve_leaves_no_attribution(self):
        s = Server("s", service=2.0)
        s.reserve(0.0)
        assert s.current_holder(1.0) is None

    def test_reset_clears_holder_mirror_but_keeps_ledger(self):
        s = Server("s", service=2.0)
        ledger = _RecordingLedger()
        s.attach_sanitizer(ledger)
        s.reserve(0.0, owner="req")
        s.reset()
        assert s.holder is None
        assert s.holder_since == 0.0
        assert s.current_holder(0.0) is None
        assert s.ledger is ledger  # wiring survives; state does not

    def test_group_reset_clears_every_holder(self):
        g = ServerGroup("g", 2, service=1.0)
        g[0].reserve(0.0, owner="a")
        g[1].reserve(0.0, owner="b")
        g.reset()
        assert all(s.holder is None for s in g)

    def test_attached_ledger_sees_every_reservation(self):
        s = Server("s", service=2.0, latency=1.0)
        ledger = _RecordingLedger()
        s.attach_sanitizer(ledger)
        s.reserve(0.0)
        s.reserve(0.0, size=2.0)
        assert ledger.calls == [("s", 0.0, 1.0, 3.0), ("s", 2.0, 2.0, 7.0)]

    def test_group_attach_reaches_all_servers(self):
        g = ServerGroup("g", 3, service=1.0)
        ledger = _RecordingLedger()
        g.attach_sanitizer(ledger)
        assert all(s.ledger is ledger for s in g)


_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_sizes = st.floats(min_value=0.1, max_value=16.0, allow_nan=False, allow_infinity=False)


class TestServerProperties:
    @given(st.lists(st.tuples(_times, _sizes), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_service_starts_monotone_and_never_before_arrival(self, arrivals):
        # start = max(now, next_free) and next_free never moves backwards,
        # so service starts are non-decreasing in reservation order even
        # for out-of-order arrival times — and never precede the arrival.
        s = Server("s", service=1.5, latency=3.0)
        prev_start = 0.0
        for now, size in arrivals:
            completion = s.reserve(now, size=size)
            start = completion - s.latency - s.service * size
            assert start >= now - 1e-9
            assert start >= prev_start - 1e-9
            prev_start = start

    @given(st.lists(st.tuples(_times, _sizes), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_busy_cycles_equal_sum_of_occupancies(self, arrivals):
        s = Server("s", service=2.0)
        for now, size in arrivals:
            s.reserve(now, size=size)
        expected = sum(s.service * size for _, size in arrivals)
        assert s.busy_cycles == pytest.approx(expected)
        assert s.num_served == len(arrivals)


class TestServerGroupProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.tuples(st.integers(min_value=0, max_value=63), _times), max_size=60),
        _times.filter(lambda t: t > 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_utilization_bounds(self, count, reservations, horizon):
        g = ServerGroup("g", count, service=1.0)
        for idx, now in reservations:
            g[idx % count].reserve(now)
        for s in g:
            assert 0.0 <= s.utilization(horizon) <= 1.0
        assert 0.0 <= g.max_utilization(horizon) <= 1.0
        assert g.total_served() == len(reservations)
