"""Unit tests for the crossbar timing model."""

import pytest

from repro.noc.crossbar import Crossbar


class TestTraversal:
    def test_latency_plus_serialization(self):
        xb = Crossbar("x", 4, 4, cycles_per_flit=2.0, latency=10.0)
        # 1 flit: 2 cycles on the input port, 2 on the output, +10 latency.
        assert xb.traverse(0.0, 0, 0, 1) == 14.0

    def test_multi_flit_serialization(self):
        xb = Crossbar("x", 4, 4, cycles_per_flit=2.0, latency=10.0)
        assert xb.traverse(0.0, 0, 0, 4) == 26.0  # 8 in + 8 out + 10

    def test_output_port_contention(self):
        xb = Crossbar("x", 4, 4, cycles_per_flit=2.0, latency=0.0)
        t0 = xb.traverse(0.0, 0, 3, 1)
        t1 = xb.traverse(0.0, 1, 3, 1)  # different input, same output
        assert t0 == 4.0
        assert t1 == 6.0  # queued behind t0 on the output port

    def test_input_port_contention(self):
        xb = Crossbar("x", 4, 4, cycles_per_flit=2.0, latency=0.0)
        xb.traverse(0.0, 0, 0, 1)
        t = xb.traverse(0.0, 0, 1, 1)  # same input, different output
        assert t == 6.0

    def test_disjoint_ports_are_parallel(self):
        xb = Crossbar("x", 4, 4, cycles_per_flit=2.0, latency=0.0)
        t0 = xb.traverse(0.0, 0, 0, 1)
        t1 = xb.traverse(0.0, 1, 1, 1)
        assert t0 == t1 == 4.0

    def test_flit_hops_accumulate(self):
        xb = Crossbar("x", 2, 2, 1.0, 0.0)
        xb.traverse(0.0, 0, 0, 3)
        xb.traverse(0.0, 1, 1, 2)
        assert xb.flit_hops == 5


class TestFrequencyScaling:
    def test_boosted_crossbar_halves_service(self):
        slow = Crossbar("s", 2, 2, cycles_per_flit=2.0, latency=8.0)
        fast = Crossbar("f", 2, 2, cycles_per_flit=1.0, latency=4.0)
        assert slow.traverse(0.0, 0, 0, 2) == 16.0
        assert fast.traverse(0.0, 0, 0, 2) == 8.0


class TestUtilization:
    def test_max_out_utilization(self):
        xb = Crossbar("x", 2, 2, 1.0, 0.0)
        xb.traverse(0.0, 0, 1, 4)
        assert xb.max_out_utilization(8.0) == pytest.approx(0.5)
        assert xb.max_in_utilization(8.0) == pytest.approx(0.5)


class TestValidation:
    def test_positive_ports(self):
        with pytest.raises(ValueError):
            Crossbar("x", 0, 2, 1.0, 0.0)

    def test_positive_service(self):
        with pytest.raises(ValueError):
            Crossbar("x", 2, 2, 0.0, 0.0)
