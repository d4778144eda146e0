"""Property-based SimVec identity: fused event dispatch must be
bit-invisible on *random* small workloads and designs, not just the
hand-picked grid points in tests/test_simturbo.py.

Every example runs the same (profile, design, GPU) config twice — once
with its production wiring ("fused" in the test names), once with
``force_scalar_dispatch()`` — and requires a single fingerprint; a
second property closes the loop against a sanitized run (the slow
twins).  Every design in the strategy installs fused handlers.  The
profile strategy deliberately spans the shapes the fused handlers
branch on: stores/atomics/bypasses (the fused issue and L2 access hand
such requests to the scalar methods), MLP > 1 (the fused re-issue
push), tiny streams (the exhausted-wavefront hand-off and CTA refills)
and imbalance (ragged same-cycle buckets).  The GPU strategy adds small
MSHR files and a small L2, so merges, stall replays and dirty
write-backs reach the fused miss path.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.system import GPUSystem, simulate
from repro.workloads.profile import AppProfile

TINY_GPU = GPUConfig(num_cores=8, num_l2_slices=4, num_channels=2)

gpus = st.sampled_from(
    [
        TINY_GPU,
        dataclasses.replace(
            TINY_GPU, l1_mshr_entries=1, l2_mshr_entries=2, l2_slice_bytes=4096
        ),
    ]
)

designs = st.sampled_from(
    [
        DesignSpec.baseline(),
        DesignSpec.private(4),
        DesignSpec.shared(4),
        DesignSpec.clustered(4, 2),
        DesignSpec.single_l1(),
    ]
)

profiles = st.builds(
    AppProfile,
    name=st.sampled_from(["vec-a", "vec-b"]),
    num_ctas=st.integers(1, 24),
    accesses_per_cta=st.integers(1, 48),
    wavefront_slots=st.integers(1, 4),
    compute_gap=st.sampled_from([1.0, 3.0]),
    mlp=st.integers(1, 3),
    shared_lines=st.integers(16, 128),
    shared_fraction=st.floats(0.0, 0.9),
    private_lines=st.integers(8, 64),
    block_lines=st.integers(1, 16),
    block_repeats=st.integers(1, 3),
    store_fraction=st.floats(0.0, 0.3),
    atomic_fraction=st.floats(0.0, 0.2),
    bypass_fraction=st.floats(0.0, 0.2),
    camp_fraction=st.floats(0.0, 1.0),
    camp_width=st.integers(1, 8),
    imbalance=st.floats(0.0, 0.8),
)


class TestSimVecProperties:
    @given(profiles, designs, gpus)
    @settings(max_examples=40, deadline=None)
    def test_fused_fingerprint_equals_scalar(self, profile, spec, gpu):
        cfg = SimConfig(gpu=gpu)
        fused = GPUSystem(profile, spec, cfg).run()
        scalar_sys = GPUSystem(profile, spec, cfg)
        scalar_sys.force_scalar_dispatch()
        scalar = scalar_sys.run()
        assert fused.fingerprint() == scalar.fingerprint()

    @given(profiles, designs, gpus)
    @settings(max_examples=10, deadline=None)
    def test_fused_fingerprint_equals_sanitized(self, profile, spec, gpu):
        """Three-way anchor: fused == sanitized (the slow twins) closes
        the loop scalar parity alone would leave open."""
        fused = simulate(profile, spec, SimConfig(gpu=gpu))
        slow = simulate(profile, spec, SimConfig(gpu=gpu, sanitize=True))
        assert fused.fingerprint() == slow.fingerprint()
