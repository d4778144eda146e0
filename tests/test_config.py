"""Unit tests for platform/simulation configuration."""

import pytest

from repro.sim.config import GPUConfig, SimConfig


class TestGPUConfig:
    def test_table2_defaults(self):
        gpu = GPUConfig()
        assert gpu.num_cores == 80
        assert gpu.num_l2_slices == 32
        assert gpu.num_channels == 16
        assert gpu.l1_size_bytes == 16 * 1024
        assert gpu.line_bytes == 128
        assert gpu.l1_latency == 28.0

    def test_total_l1_and_lines(self):
        gpu = GPUConfig()
        assert gpu.total_l1_bytes == 80 * 16 * 1024
        assert gpu.l1_lines == 128

    def test_dcl1_size_preserves_budget(self):
        gpu = GPUConfig()
        assert gpu.dcl1_size_bytes(40) == 32 * 1024
        assert gpu.dcl1_size_bytes(80) == 16 * 1024
        assert gpu.dcl1_size_bytes(10) == 128 * 1024
        # 80 x 16 KiB = 1.25 MiB is not a power-of-two set count; the
        # single-cache case rounds to the nearest valid geometry (1 MiB).
        assert gpu.dcl1_size_bytes(1) == 1024 * 1024

    def test_dcl1_size_rounds_to_pow2_sets(self):
        gpu = GPUConfig()
        size = gpu.dcl1_size_bytes(40)
        sets = size // (gpu.l1_assoc * gpu.line_bytes)
        assert sets & (sets - 1) == 0

    def test_latency_grows_with_capacity(self):
        gpu = GPUConfig()
        assert gpu.l1_level_latency(16 * 1024) == 28.0
        assert gpu.l1_level_latency(32 * 1024) == 30.0  # the paper's 30 cycles
        assert gpu.l1_level_latency(64 * 1024) == 32.0
        assert gpu.l1_level_latency(8 * 1024) == 28.0  # never below baseline

    def test_scaled_up_system(self):
        gpu = GPUConfig().scaled_up(1.5)
        assert gpu.num_cores == 120
        assert gpu.num_l2_slices == 48
        assert gpu.num_channels == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUConfig(num_l2_slices=30, num_channels=16)
        with pytest.raises(ValueError):
            GPUConfig(num_cores=0)

    def test_frozen_and_hashable(self):
        a, b = GPUConfig(), GPUConfig()
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.num_cores = 16


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.scale == 1.0
        assert cfg.cta_scheduler == "round_robin"
        assert cfg.l1_latency_override is None

    def test_hashable_for_runner_cache(self):
        assert hash(SimConfig()) == hash(SimConfig())
