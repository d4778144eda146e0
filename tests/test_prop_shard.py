"""Property-based pool-boundary serialization soundness: any
(AppProfile, DesignSpec, SimConfig) grid point must cross a pickle
boundary bit-faithfully — the restored triple is equal, derives the
same ``sim_cache_key``, and a simulated result's fingerprint survives
its own roundtrip.  Real process pools replay the same invariants in
Tier-1 (``TestFleetIdentity`` in ``tests/test_fleet.py``;
``test_parallel_identical_to_serial`` and
``test_spawn_pool_identical_to_serial`` in ``tests/test_sweep.py``);
Hypothesis drives the serialization side with thousands of random grid
points at zero simulation cost.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.store import sim_cache_key
from repro.sim.validation import validate_grid
from repro.workloads.profile import AppProfile

TINY_GPU = GPUConfig(num_cores=8, num_l2_slices=4, num_channels=2)

profiles = st.builds(
    AppProfile,
    name=st.sampled_from(["prop-a", "prop-b"]),
    suite=st.sampled_from(["", "polybench", "tango"]),
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
    imbalance=st.floats(0.0, 0.8),
    trace_variant=st.integers(0, 3),
)

designs = st.sampled_from(
    [
        DesignSpec.baseline(),
        DesignSpec.private(8),
        DesignSpec.shared(8),
        DesignSpec.clustered(8, 4),
        DesignSpec.clustered(8, 4, boost=2.0),
        DesignSpec.cdxbar(),
        DesignSpec.single_l1(),
    ]
)

configs = st.builds(
    SimConfig,
    gpu=st.just(TINY_GPU),
    scale=st.sampled_from([0.05, 0.1, 1.0]),
    cta_scheduler=st.sampled_from(["round_robin", "distributed"]),
    l1_latency_override=st.one_of(st.none(), st.sampled_from([11.0, 28.0])),
    home_strategy=st.sampled_from(["interleave", "bits"]),
    home_bit_shift=st.integers(0, 3),
    full_line_noc1_replies=st.booleans(),
    l1_bypass=st.booleans(),
    sanitize=st.booleans(),
    watchdog=st.booleans(),
)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestGridPointsPickleFaithfully:
    """The exact payload run_many ships to its workers must survive the
    boundary: equal objects, identical content-addressed key."""

    @given(profiles, designs, configs)
    @settings(max_examples=80, deadline=None)
    def test_point_equality_survives(self, profile, spec, cfg):
        point = (profile, spec, cfg)
        assert roundtrip(point) == point

    @given(profiles, designs, configs)
    @settings(max_examples=80, deadline=None)
    def test_cache_key_survives(self, profile, spec, cfg):
        restored = roundtrip((profile, spec, cfg))
        assert sim_cache_key(*restored) == sim_cache_key(profile, spec, cfg)

    @given(profiles, designs, configs)
    @settings(max_examples=40, deadline=None)
    def test_validate_grid_accepts_any_roundtripped_point(
        self, profile, spec, cfg
    ):
        point = roundtrip((profile, spec, cfg))
        keys = validate_grid([point])
        assert keys == [sim_cache_key(profile, spec, cfg)]


class TestResultsPickleFaithfully:
    """A SimResult's fingerprint is bit-identical after crossing the
    pool boundary back to the parent (a handful of real simulations —
    results can't be synthesized without running)."""

    def test_fingerprints_survive_roundtrip(self):
        from repro.sim.system import simulate
        from repro.workloads.suite import get_app

        cfg = SimConfig(scale=0.05)
        for app_name, spec in (
            ("C-BLK", DesignSpec.baseline()),
            ("C-NN", DesignSpec.shared(40)),
        ):
            res = simulate(get_app(app_name), spec, cfg)
            assert roundtrip(res).fingerprint() == res.fingerprint()
