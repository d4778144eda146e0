"""Property-based key/fingerprint soundness: the cache key must be a
pure function of exactly the keyed fields (any keyed difference changes
it, neutral-only differences never do), and non-identity observability
must never reach a result's fingerprint, equality, or serialized form.

These are the same invariants ``repro purity --confirm`` replays with
real simulations; here Hypothesis drives the *key* side with thousands
of random configurations at zero simulation cost.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.results import SimResult, identity_manifest
from repro.sim.store import cache_key_manifest, sim_cache_key
from repro.workloads.profile import AppProfile

TINY_GPU = GPUConfig(num_cores=8, num_l2_slices=4, num_channels=2)

BASE_PROFILE = AppProfile(name="prop", num_ctas=4, accesses_per_cta=8)
BASE_SPEC = DesignSpec.clustered(8, 4)
BASE_CFG = SimConfig(gpu=TINY_GPU)


def keyed_values(role, obj):
    """The tuple of declared-keyed field values for one input object."""
    return tuple(
        getattr(obj, name) for name in cache_key_manifest()[role]["keyed"]
    )


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
        DesignSpec.private(4),
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
    race_check=st.booleans(),
    race_seed=st.integers(1, 5),
    max_events=st.sampled_from([10_000, 200_000_000]),
    # Neutral knobs vary too: they must never matter to the key.
    sanitize=st.booleans(),
    watchdog=st.booleans(),
)


class TestKeyIsAPureFunctionOfKeyedFields:
    """sim_cache_key(a) == sim_cache_key(b)  <=>  keyed fields agree."""

    @given(profiles, profiles)
    @settings(max_examples=60, deadline=None)
    def test_profile_biconditional(self, a, b):
        same_key = (
            sim_cache_key(a, BASE_SPEC, BASE_CFG)
            == sim_cache_key(b, BASE_SPEC, BASE_CFG)
        )
        assert same_key == (
            keyed_values("profile", a) == keyed_values("profile", b)
        )

    @given(designs, designs)
    @settings(max_examples=60, deadline=None)
    def test_design_biconditional(self, a, b):
        same_key = (
            sim_cache_key(BASE_PROFILE, a, BASE_CFG)
            == sim_cache_key(BASE_PROFILE, b, BASE_CFG)
        )
        assert same_key == (
            keyed_values("design", a) == keyed_values("design", b)
        )

    @given(configs, configs)
    @settings(max_examples=60, deadline=None)
    def test_config_biconditional(self, a, b):
        same_key = (
            sim_cache_key(BASE_PROFILE, BASE_SPEC, a)
            == sim_cache_key(BASE_PROFILE, BASE_SPEC, b)
        )
        assert same_key == (
            keyed_values("config", a) == keyed_values("config", b)
        )


class TestNeutralFieldsNeverTouchTheKey:
    @given(
        profiles,
        st.text(min_size=0, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_profile_suite_is_neutral(self, profile, suite):
        relabeled = dataclasses.replace(profile, suite=suite)
        assert sim_cache_key(relabeled, BASE_SPEC, BASE_CFG) == sim_cache_key(
            profile, BASE_SPEC, BASE_CFG
        )

    @given(configs, st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_observation_knobs_are_neutral(self, cfg, sanitize, watchdog):
        toggled = dataclasses.replace(cfg, sanitize=sanitize, watchdog=watchdog)
        assert sim_cache_key(BASE_PROFILE, BASE_SPEC, toggled) == sim_cache_key(
            BASE_PROFILE, BASE_SPEC, cfg
        )


class TestObservabilityNeverTouchesIdentity:
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_identity_mutation_keeps_fingerprint_and_equality(
        self, wall, rate
    ):
        base = SimResult(app="prop", design="Pr8")
        timed = dataclasses.replace(base, wall_time_s=wall, events_per_s=rate)
        assert timed.fingerprint() == base.fingerprint()
        assert timed == base  # compare=False: observability is not identity

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=60, deadline=None)
    def test_serialized_form_carries_no_observability(self, wall, rate):
        timed = dataclasses.replace(
            SimResult(app="prop", design="Pr8"),
            wall_time_s=wall, events_per_s=rate,
        )
        data = timed.to_jsonable()
        # One value per identity field: no slot for the wall clock.
        assert len(data) == len(identity_manifest()["identity"])
        back = SimResult.from_jsonable(data)
        assert back.fingerprint() == timed.fingerprint()
