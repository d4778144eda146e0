"""SimTurbo regression suite: the hot-path overhaul must be invisible.

Three layers of protection:

1. **Golden seed fingerprints** — SHA-256 hashes of
   :meth:`~repro.sim.results.SimResult.fingerprint` captured on the
   pre-SimTurbo tree (request pooling, prebound routes, batched counters
   and the fast drain loop did not exist yet).  Today's pooled fast path
   must reproduce them bit-exactly.
2. **Cross-instrumentation identity** — one real Figure-8 grid point run
   plain / sanitized / watchdog / shadow-shuffled / profiled must yield
   one fingerprint: instrumentation observes, it never steers.
3. **Fast/slow component equivalence** — ``reserve_fast`` /
   ``traverse_fast`` / ``make_fast_routes`` / ``make_fast_home_of``
   replicate their instrumented counterparts' float arithmetic exactly,
   not approximately.
"""

import hashlib
import json

import pytest

from repro.core.designs import DesignSpec
from repro.sim.config import SimConfig
from repro.sim.profiler import profile_simulation
from repro.sim.system import GPUSystem, simulate
from repro.workloads.suite import get_app

# SHA-256 of the canonical JSON fingerprint, captured on the seed tree
# (commit 23318a7, before the SimTurbo hot path existed).
GOLDEN = {
    ("T-AlexNet", "Baseline", 0.1):
        "346bb653f9389aa92f7a951cf0e5938258b6820ea0e9f7fa0e67dcd729afd147",
    ("T-AlexNet", "Sh40", 0.1):
        "c524fbec40fb167d91ffab96c349817b5834234fa8c862c1caaa802186b757a6",
    ("P-2MM", "Sh40", 0.1):
        "cf3e4827658dcd9bfd1244a073b898170d9e2b3d91ad4b35ac9f97279204e794",
    ("P-2MM", "Sh40+C10+Boost", 0.1):
        "41fd6bac713880cf23a42798c89f33ca9c4993d2b7ed7949b0db33c75cbf727a",
    ("C-NN", "Pr40", 0.1):
        "3d7420f339d77165d82b1d6bfd1e37a47a83d9921a589796dfa392d6cd8538e4",
    # Decoupled clustered point (exercises the closure-mode fast homing
    # and the clustered crossbar route twins); captured after
    # force_slow_path() verified fast == slow bit-exactly.
    ("C-SP", "Sh40+C10", 0.1):
        "1ecc857dbe6d98ba36ad8122f1dce347a78e24c2679ddfc7938688327321a512",
}

DESIGNS = {
    "Baseline": DesignSpec.baseline(),
    "Sh40": DesignSpec.shared(40),
    "Pr40": DesignSpec.private(40),
    "Sh40+C10": DesignSpec.clustered(40, 10),
    "Sh40+C10+Boost": DesignSpec.clustered(40, 10, boost=2.0),
}


def fingerprint_hash(res) -> str:
    blob = json.dumps(res.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------- golden seed fingerprints


@pytest.mark.parametrize("app,design,scale", sorted(GOLDEN))
def test_pooled_fast_path_matches_seed_fingerprints(app, design, scale):
    res = simulate(get_app(app), DESIGNS[design], SimConfig(scale=scale))
    assert fingerprint_hash(res) == GOLDEN[(app, design, scale)]


# --------------------------------------------- cross-instrumentation identity


def _fig08_point(**cfg_kwargs):
    cfg = SimConfig(scale=0.1, **cfg_kwargs)
    return simulate(get_app("T-AlexNet"), DesignSpec.shared(40), cfg)


def test_instrumented_runs_are_bit_identical():
    """Sanitizer, watchdog and shadow shuffle all take the slow path —
    different allocation pattern, different schedule wrapper, no request
    pooling — yet the simulation they observe is the same simulation."""
    want = GOLDEN[("T-AlexNet", "Sh40", 0.1)]
    assert fingerprint_hash(_fig08_point()) == want
    assert fingerprint_hash(_fig08_point(sanitize=True)) == want
    assert fingerprint_hash(_fig08_point(watchdog=True)) == want
    assert fingerprint_hash(_fig08_point(race_check=True)) == want


def test_profiled_run_is_bit_identical_and_observes_everything():
    res, prof = profile_simulation(
        get_app("T-AlexNet"), DesignSpec.shared(40), SimConfig(scale=0.1)
    )
    assert fingerprint_hash(res) == GOLDEN[("T-AlexNet", "Sh40", 0.1)]
    # The profiler saw every drained event, attributed to real handlers:
    # on Sh40 those are the fused handlers production runs.
    assert prof.production_tier == "fused"
    assert prof.total_events > 0
    names = {row.handler for row in prof.rows()}
    fused = "GPUSystem._make_fused_handlers.<locals>."
    assert fused + "_wf_issue" in names
    assert fused + "_l1_access" in names
    assert fused + "_complete" in names
    assert "GPUSystem._wf_issue" not in names
    assert prof.total_self_time >= 0.0


def test_observability_fields_are_populated_but_not_identity():
    res = _fig08_point()
    assert res.wall_time_s > 0.0
    assert res.events_per_s > 0.0
    flat = res.fingerprint()
    assert "wall_time_s" not in flat and "events_per_s" not in flat
    from repro.sim.results import SimResult, identity_manifest

    # The cache record holds one value per identity field, none for the
    # wall clock.
    data = res.to_jsonable()
    assert len(data) == len(identity_manifest()["identity"])
    # A cache round-trip (which drops the observability fields) preserves
    # the result's identity: same fingerprint, zeroed wall clock.

    clone = SimResult.from_jsonable(data)
    assert clone.fingerprint() == flat
    assert clone.wall_time_s == 0.0


# ------------------------------------------------------ fast/slow equivalence


def test_reserve_fast_is_bit_equal_to_reserve():
    from repro.sim.resources import Server

    a = Server("a", service=0.5, latency=7.0)
    b = Server("b", service=0.5, latency=7.0)
    times = [0.0, 0.25, 0.25, 3.5, 3.5, 3.5, 10.0, 10.125, 50.0]
    sizes = [1.0, 2.0, 0.5, 1.0, 1.0, 4.0, 1.0, 1.0, 2.5]
    for t, s in zip(times, sizes):
        assert a.reserve(t, s) == b.reserve_fast(t, s)
    assert a.next_free == b.next_free
    assert a.busy_cycles == b.busy_cycles
    assert a.num_served == b.num_served


def test_traverse_fast_is_bit_equal_to_traverse():
    from repro.noc.crossbar import Crossbar

    a = Crossbar("a", 4, 4, cycles_per_flit=0.5, latency=3.0)
    b = Crossbar("b", 4, 4, cycles_per_flit=0.5, latency=3.0)
    hops = [
        (0.0, 0, 1, 4), (0.5, 0, 1, 4), (0.5, 2, 1, 1),
        (7.0, 3, 0, 2), (7.0, 3, 3, 8), (20.0, 1, 2, 1),
    ]
    for now, i, o, flits in hops:
        assert a.traverse(now, i, o, flits) == b.traverse_fast(now, i, o, flits)
    assert a.flit_hops == b.flit_hops


@pytest.mark.parametrize(
    "spec",
    [
        DesignSpec.baseline(),
        DesignSpec.private(40),
        DesignSpec.shared(40),
        DesignSpec.clustered(40, 10),
        DesignSpec.cdxbar(),
    ],
    ids=lambda s: s.label,
)
def test_fast_routes_match_topology_methods(spec):
    """The prebound route closures replicate the NoCTopology methods hop
    for hop — same ports, same float arithmetic — on fresh twin systems."""
    app = get_app("P-2MM")
    sys_a = GPUSystem(app, spec, SimConfig(scale=0.05))
    sys_b = GPUSystem(app, spec, SimConfig(scale=0.05))
    fast = sys_b.topo.make_fast_routes()
    slow = (
        sys_a.topo.core_to_dcl1, sys_a.topo.dcl1_to_core,
        sys_a.topo.to_l2, sys_a.topo.from_l2,
    )
    gpu = sys_a.cfg.gpu
    n_l1 = len(sys_a.l1_banks)
    n_l2 = gpu.num_l2_slices
    if fast[0] is not None:
        for t, core, dcl1 in [(0.0, 0, 0), (1.5, 7, n_l1 - 1), (1.5, 12, 3)]:
            assert slow[0](t, core, dcl1, 2) == fast[0](t, core, dcl1, 2)
            assert slow[1](t, dcl1, core, 2) == fast[1](t, dcl1, core, 2)
    for t, src, l2 in [(0.0, 0, 0), (2.0, 1, n_l2 - 1), (2.0, 1, n_l2 - 1)]:
        assert slow[2](t, src, l2, 3) == fast[2](t, src, l2, 3)
        assert slow[3](t, l2, src, 3) == fast[3](t, l2, src, 3)


def test_fast_home_of_matches_home_of():
    for spec in (DesignSpec.shared(40), DesignSpec.clustered(40, 10),
                 DesignSpec.private(40)):
        sys_ = GPUSystem(get_app("C-NN"), spec, SimConfig(scale=0.05))
        fast = sys_.home.make_fast_home_of()
        for core in (0, 3, sys_.cfg.gpu.num_cores - 1):
            for line in (0, 1, 39, 40, 41, 12345):
                assert fast(core, line) == sys_.home.home_of(core, line)


# ------------------------------------------------- forced slow-path parity
#
# GPUSystem.force_slow_path() is the reference side of every twin-path
# test: it unwires the hot path without touching SimConfig (so the cache
# key and fingerprint inputs are untouched) and the slow twins carry the
# whole simulation.  Fast and forced-slow runs must be bit-identical for
# every access kind the issue path dispatches on.


def _twin_hashes(app, spec, scale=0.05):
    cfg = SimConfig(scale=scale)
    fast = GPUSystem(app, spec, cfg).run()
    slow_sys = GPUSystem(app, spec, cfg)
    slow_sys.force_slow_path()
    slow = slow_sys.run()
    return fingerprint_hash(fast), fingerprint_hash(slow)


def test_forced_slow_path_parity_store_heavy():
    # C-SP's store fraction drives the STORE branch of _issue_cold.
    fast, slow = _twin_hashes(get_app("C-SP"), DesignSpec.shared(40))
    assert fast == slow


def test_forced_slow_path_parity_atomic_and_bypass():
    import dataclasses

    app = dataclasses.replace(
        get_app("P-2MM"), atomic_fraction=0.05, bypass_fraction=0.05
    )
    fast, slow = _twin_hashes(app, DesignSpec.clustered(40, 10))
    assert fast == slow


def test_forced_slow_path_parity_decoupled_design():
    fast, slow = _twin_hashes(get_app("T-AlexNet"), DesignSpec.cdxbar())
    assert fast == slow


def test_force_slow_path_rejected_after_run():
    sys_ = GPUSystem(get_app("P-2MM"), DesignSpec.shared(40),
                     SimConfig(scale=0.05))
    sys_.run()
    with pytest.raises(RuntimeError):
        sys_.force_slow_path()


def test_memory_request_reinit_resets_every_slot():
    from repro.gpu.request import AccessKind, MemoryRequest

    req = MemoryRequest(0x80, AccessKind.LOAD, 32, 3)
    req.wavefront = object()
    req.issue_time = 9.0
    req.line = 2
    req.dcl1_id = 4
    req.l2_id = 5
    req.mc_id = 1
    req.l1_hit = req.l2_hit = req.merged = True
    recycled = req.reinit(0x40, AccessKind.STORE, 16, 7)
    fresh = MemoryRequest(0x40, AccessKind.STORE, 16, 7)
    assert recycled is req
    for slot in MemoryRequest.__slots__:
        assert getattr(recycled, slot) == getattr(fresh, slot), slot


def test_wavefront_materializes_streams_to_plain_ints():
    """``next_access`` must hand back plain Python ints — NumPy scalar
    boxing on the hottest call site is what the bind-time ``tolist``
    conversion exists to avoid."""
    import numpy as np

    from repro.gpu.wavefront import Wavefront

    class FakeStream:
        lines = np.array([5, 6, 7], dtype=np.int64)
        kinds = np.array([0, 1, 0], dtype=np.int8)

        def __len__(self):
            return 3

    wf = Wavefront(0, 0, FakeStream(), compute_gap=0.0)
    line, kind = wf.next_access()
    assert type(line) is int and type(kind) is int
    assert (line, kind) == (5, 0)
    assert wf.next_access() == (6, 1)
    assert wf.next_access() == (7, 0)
    assert wf.next_access() is None


# -------------------------------------------------- SimVec fused dispatch
#
# GPUSystem.force_scalar_dispatch() is the SimVec differential confirmer:
# same fast wiring, but every event runs its scalar fast handler instead
# of the fused handler installed over it.  Fused ("batched" in the test
# names), scalar and forced-slow runs of one config must produce one
# fingerprint — that identity is the fused handlers' whole contract.
# Only the single-cluster Sh40 shape installs fused handlers; every other
# design drains on scalar dispatch, so its "batched" run is a scalar run
# and the point checks scalar == slow.


def _three_way_hashes(app, spec, scale=0.1, **cfg_kw):
    cfg = SimConfig(scale=scale, **cfg_kw)
    batched = GPUSystem(app, spec, cfg).run()
    scalar_sys = GPUSystem(app, spec, cfg)
    scalar_sys.force_scalar_dispatch()
    scalar = scalar_sys.run()
    slow_sys = GPUSystem(app, spec, cfg)
    slow_sys.force_slow_path()
    slow = slow_sys.run()
    return (
        fingerprint_hash(batched), fingerprint_hash(scalar),
        fingerprint_hash(slow),
    )


@pytest.mark.parametrize(
    "app_name, design",
    [
        ("T-AlexNet", "Sh40"),       # fused handlers engage
        ("C-SP", "Sh40"),            # fused; stores hand issues to scalar
        ("T-AlexNet", "Baseline"),   # coupled: no DC-L1 level
        ("T-ResNet", "Pr40"),        # private homes
        ("C-SP", "Sh40+C10"),        # clustered: scalar dispatch only
        ("T-AlexNet", "Sh40+C10"),   # clustered, load-heavy
    ],
)
def test_batched_dispatch_matches_scalar_and_slow(app_name, design):
    b, s, sl = _three_way_hashes(get_app(app_name), DESIGNS[design])
    assert b == s, f"batched != scalar on {app_name}/{design}"
    assert b == sl, f"batched != slow on {app_name}/{design}"


def test_batched_dispatch_matches_scalar_with_q1_credits():
    # Finite node queues route issue through _enter_node; the fused
    # handlers must decline and scalar dispatch must still be bit-exact.
    b, s, sl = _three_way_hashes(
        get_app("T-AlexNet"), DESIGNS["Sh40"], dcl1_queue_depth=4
    )
    assert b == s == sl


def _installed(sys_):
    """The fused handlers installed on ``sys_`` (instance attributes that
    shadow the scalar methods), by name."""
    return {name: sys_.__dict__[name]
            for name in ("_wf_issue", "_l1_access", "_complete")
            if name in sys_.__dict__}


def test_specialized_twins_engage_on_the_headline_config():
    """Guard against the identity tests passing vacuously: on the
    Sh40/T-AlexNet shape the fused handlers must actually be installed
    (a silent eligibility regression would quietly hand the headline
    benchmark back to the scalar path)."""
    sys_ = GPUSystem(get_app("T-AlexNet"), DESIGNS["Sh40"],
                     SimConfig(scale=0.05))
    fused = _installed(sys_)
    assert sorted(fused) == ["_complete", "_l1_access", "_wf_issue"]
    for name, handler in fused.items():
        # the installed handler is the fused closure named after the
        # scalar handler it replaces
        assert handler.__qualname__ == (
            f"GPUSystem._make_fused_handlers.<locals>.{name}"
        )
    assert sys_.dispatch_tier == "fused"
    sys_.force_scalar_dispatch()
    assert _installed(sys_) == {}
    assert sys_._wf_issue.__func__ is GPUSystem._wf_issue
    assert sys_.dispatch_tier == "scalar"
    slow = GPUSystem(get_app("T-AlexNet"), DESIGNS["Sh40"],
                     SimConfig(scale=0.05))
    slow.force_slow_path()
    assert _installed(slow) == {}
    assert slow.dispatch_tier == "slow"


def test_specialized_twins_decline_on_clustered_shape():
    """Only the fused shape installs fused handlers: every other design
    (Sh40 with Q1 credits, which the fusion elides, and a shadow-shuffled
    Sh40 run, which SimRace's confirmer must replay on the scalar
    methods) drains on scalar dispatch with no handler installed."""
    cases = [
        ("C-SP", "Sh40+C10", {}),
        ("T-AlexNet", "Baseline", {}),
        ("T-ResNet", "Pr40", {}),
        ("T-AlexNet", "Sh40", {"dcl1_queue_depth": 4}),
        ("T-AlexNet", "Sh40", {"race_check": True}),
    ]
    for app, design, cfg_kw in cases:
        sys_ = GPUSystem(get_app(app), DESIGNS[design],
                         SimConfig(scale=0.05, **cfg_kw))
        assert _installed(sys_) == {}, (app, design, cfg_kw)
        assert sys_.dispatch_tier == "scalar", (app, design, cfg_kw)
