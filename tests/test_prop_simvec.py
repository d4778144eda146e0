"""Property-based SimVec identity: fused event dispatch must be
bit-invisible on *random* small workloads and designs, not just the
hand-picked grid points in tests/test_simturbo.py.

Every example runs the same (profile, design) config twice — once with
its production wiring, once with ``force_scalar_dispatch()`` — and
requires a single fingerprint ("batched" in the test names means the
production wiring).  Only the single-cluster shared design installs
fused handlers; the others drain on scalar dispatch both times.  The
profile strategy deliberately spans the shapes the fused handlers
branch on: stores/atomics/bypasses (the fused issue hands such accesses
to the scalar ``_wf_issue``), MLP > 1 (the fused re-issue push), tiny
streams (the exhausted-wavefront hand-off and CTA refills) and
imbalance (ragged same-cycle buckets).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.system import GPUSystem
from repro.workloads.profile import AppProfile

TINY_GPU = GPUConfig(num_cores=8, num_l2_slices=4, num_channels=2)

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
    @given(profiles, designs)
    @settings(max_examples=40, deadline=None)
    def test_batched_fingerprint_equals_scalar(self, profile, spec):
        cfg = SimConfig(gpu=TINY_GPU)
        batched = GPUSystem(profile, spec, cfg).run()
        scalar_sys = GPUSystem(profile, spec, cfg)
        scalar_sys.force_scalar_dispatch()
        scalar = scalar_sys.run()
        assert batched.fingerprint() == scalar.fingerprint()

    @given(profiles)
    @settings(max_examples=10, deadline=None)
    def test_batched_fingerprint_equals_slow_on_shared(self, profile):
        """Three-way anchor on the decoupled shape that engages the fused
        handlers: batched == forced-slow closes the loop scalar parity
        alone would leave open."""
        spec = DesignSpec.shared(4)
        cfg = SimConfig(gpu=TINY_GPU)
        batched = GPUSystem(profile, spec, cfg).run()
        slow_sys = GPUSystem(profile, spec, cfg)
        slow_sys.force_slow_path()
        slow = slow_sys.run()
        assert batched.fingerprint() == slow.fingerprint()
