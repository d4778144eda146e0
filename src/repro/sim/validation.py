"""Invariant auditing — post-run and continuous.

:func:`audit` inspects a finished :class:`~repro.sim.system.GPUSystem` and
checks the structural invariants a correct run must satisfy — request
conservation, stats consistency, directory/capacity agreement, replication
bounds implied by the design.  Tests use it after every integration run;
it is also handy when developing new designs or workload models
(``simulate(..., )`` then ``audit(system)`` in a debugger).

:func:`live_audit` is the *continuous* subset: invariants that must hold
at every instant of a run, not only at drain.  The SimSanitizer
(``SimConfig(sanitize=True)``, see :mod:`repro.analysis.sanitizer`) calls
it periodically mid-run, so a corrupted cache set or a diverged directory
is reported thousands of events after the bug — not after a livelocked
500M-event budget.

Each violated invariant produces one human-readable finding; an empty list
means the run is clean.  :func:`assert_clean` raises on findings.

:func:`validate_grid` is the *pre-flight* counterpart for sweeps: it
checks a resolved grid of (profile, spec, config) points — types,
parameter sanity, cache-keyability, duplicate-after-normalization
collisions — before :meth:`~repro.experiments.base.Runner.run_many` or
the CLI submit anything to a process pool.  A malformed point should
fail in milliseconds at submission, not minutes into a pooled sweep.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.designs import DesignKind, DesignSpec


def audit(system) -> List[str]:
    """Return a list of invariant violations for a completed system."""
    findings: List[str] = []
    res = system.result

    def check(ok: bool, message: str) -> None:
        if not ok:
            findings.append(message)

    check(system._ran, "system has not run")
    check(system.outstanding == 0, f"{system.outstanding} requests still outstanding")
    check(system.engine.empty(), "event queue not drained")
    check(res.cycles >= 0, "negative cycle count")

    # Request conservation: everything the trace contains was issued.
    check(
        res.total_requests == system.workload.total_accesses,
        f"issued {res.total_requests} != trace {system.workload.total_accesses}",
    )
    # Every load got a round-trip measurement.
    check(
        res.load_rtt_count == res.loads,
        f"rtt measured for {res.load_rtt_count} of {res.loads} loads",
    )

    # Cores drained.
    for core in system.cores:
        check(core.idle, f"core {core.core_id} still has work")
        check(
            core.active_wavefronts == 0,
            f"core {core.core_id} has {core.active_wavefronts} live wavefronts",
        )

    # Node queues drained and every Q1 credit back home (finite-Q1 mode):
    # a leaked credit starves the node's later requests, and a double
    # release silently deepens its queue.
    if system._node_credits is not None:
        depth = system.cfg.dcl1_queue_depth
        for n, waiters in enumerate(system._node_waiters):
            check(not waiters, f"DC-L1 node {n} still has parked requests")
        for n, credits in enumerate(system._node_credits):
            check(credits == depth,
                  f"DC-L1 node {n} holds {credits} Q1 credits at drain, not {depth}")

    # MSHRs drained.
    for i, mshr in enumerate(system.l1_mshrs):
        check(mshr.drained(), f"L1-level MSHR {i} not drained")
    for s in system.l2_slices:
        check(s.mshr.drained(), f"L2 slice {s.slice_id} MSHR not drained")

    # Cache-level stats consistency.
    l1 = res.l1
    check(l1.accesses == l1.hits + l1.misses, "L1 stats do not balance")
    check(
        l1.replicated_misses <= l1.misses,
        "more replicated misses than misses",
    )
    if not system.spec.perfect_l1:
        # Perfect caches hit without evicting; real ones write-evict.
        check(l1.store_hits == l1.write_evicts, "write-evict accounting broken")

    # Capacity invariants.
    for cache in system.l1_caches:
        check(
            cache.occupancy() <= cache.num_lines,
            f"{cache.name} over capacity",
        )
    # Directory agreement: total resident copies equals cache occupancy sum
    # (perfect caches install nothing).
    if not system.spec.perfect_l1:
        resident = sum(c.occupancy() for c in system.l1_caches)
        check(
            system.l1_directory.total_copies() == resident,
            f"directory copies {system.l1_directory.total_copies()} != "
            f"resident lines {resident}",
        )

    # Design-implied replication bounds.
    if system.spec.kind == DesignKind.DCL1 and system.geometry is not None:
        z = system.geometry.num_clusters
        check(
            res.mean_replicas <= z + 1e-9,
            f"mean replicas {res.mean_replicas:.2f} exceed cluster bound {z}",
        )
        if z == 1:
            check(
                res.replication_ratio == 0.0,
                "fully shared design observed replicated misses",
            )
    if system.spec.kind == DesignKind.SINGLE_L1:
        check(res.replication_ratio == 0.0, "single L1 cannot replicate")

    # Utilizations are fractions.
    for name, value in (
        ("l1_port_util_max", res.l1_port_util_max),
        ("core_reply_link_util_max", res.core_reply_link_util_max),
        ("dram_util_mean", res.dram_util_mean),
    ):
        check(0.0 <= value <= 1.0, f"{name} out of [0,1]: {value}")

    return findings


def live_audit(system) -> List[str]:
    """Invariants that must hold mid-run (the continuous audit subset).

    Unlike :func:`audit` this never assumes the system has drained, so the
    sanitizer can call it while requests are still in flight.
    """
    findings: List[str] = []
    if system.outstanding < 0:
        findings.append(f"outstanding request count went negative ({system.outstanding})")
    for cache in system.l1_caches:
        occ = cache.occupancy()
        if occ > cache.num_lines:
            findings.append(f"{cache.name} over capacity ({occ} > {cache.num_lines})")
    if not system.spec.perfect_l1:
        resident = sum(c.occupancy() for c in system.l1_caches)
        copies = system.l1_directory.total_copies()
        if copies != resident:
            findings.append(
                f"directory copies {copies} != resident lines {resident}"
            )
    for mshr in system.l1_mshrs:
        if len(mshr) > mshr.num_entries:
            findings.append("L1-level MSHR file over capacity")
    for s in system.l2_slices:
        if len(s.mshr) > s.mshr.num_entries:
            findings.append(f"L2 slice {s.slice_id} MSHR file over capacity")
    return findings


def assert_clean(system) -> None:
    """Raise AssertionError listing every violated invariant."""
    findings = audit(system)
    if findings:
        raise AssertionError(
            "invariant violations:\n  " + "\n  ".join(findings)
        )


class GridValidationError(ValueError):
    """A sweep grid failed pre-flight validation.

    ``problems`` holds every violation found (validation does not stop at
    the first), so one failure report covers the whole grid.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems: List[str] = list(problems)
        super().__init__(
            "invalid sweep grid:\n  " + "\n  ".join(self.problems)
        )


def validate_grid(
    points: Sequence[Tuple[object, object, object]],
    *,
    on_duplicate: str = "error",
) -> List[str]:
    """Pre-flight check of a resolved sweep grid; returns the cache keys.

    Each point must be a fully resolved ``(profile, spec, config)``
    triple (see :meth:`~repro.experiments.base.Runner.resolve_points`).
    Checks, accumulating *all* problems before raising:

    * shape and types — a 3-tuple of (:class:`AppProfile`,
      :class:`DesignSpec`, :class:`SimConfig`);
    * parameter sanity — ``scale > 0`` and ``max_events > 0`` (a zero or
      negative scale dies deep in trace synthesis otherwise);
    * cache-keyability — :func:`repro.sim.store.sim_cache_key` must
      derive, proving the point canonicalizes (and therefore pickles and
      serializes) cleanly;
    * duplicate collisions — two points identical *after normalization*
      (same ``sim_cache_key``) are reported by their colliding indices
      when ``on_duplicate="error"`` (the strict CLI/confirmer mode: a
      duplicated grid point is almost always a grid-construction bug).
      ``on_duplicate="collapse"`` skips that check for callers like
      :meth:`Runner.run_many` that deliberately collapse duplicates to
      one simulation.

    On any problem raises :class:`GridValidationError` listing all of
    them; otherwise returns one ``sim_cache_key`` per point, in order.
    """
    if on_duplicate not in ("error", "collapse"):
        raise ValueError(
            f"on_duplicate must be 'error' or 'collapse'; got {on_duplicate!r}"
        )
    # Local imports: validation is imported by the sanitizer at module
    # scope, and store/config/profile pull in numpy-heavy modules this
    # function alone needs.
    from repro.sim.config import SimConfig
    from repro.sim.store import sim_cache_key
    from repro.workloads.profile import AppProfile

    problems: List[str] = []
    keys: List[str] = []
    first_at: dict = {}
    for i, point in enumerate(points):
        if not (isinstance(point, tuple) and len(point) == 3):
            problems.append(
                f"point {i}: expected a (profile, spec, config) triple; "
                f"got {point!r}"
            )
            keys.append("")
            continue
        profile, spec, cfg = point
        bad_type = False
        for value, cls, role in (
            (profile, AppProfile, "profile"),
            (spec, DesignSpec, "spec"),
            (cfg, SimConfig, "config"),
        ):
            if not isinstance(value, cls):
                problems.append(
                    f"point {i}: {role} is {type(value).__name__}, "
                    f"expected {cls.__name__}"
                )
                bad_type = True
        if bad_type:
            keys.append("")
            continue
        if not cfg.scale > 0:
            problems.append(
                f"point {i} ({profile.name}/{spec.label}): "
                f"scale must be > 0; got {cfg.scale!r}"
            )
        if not cfg.max_events > 0:
            problems.append(
                f"point {i} ({profile.name}/{spec.label}): "
                f"max_events must be > 0; got {cfg.max_events!r}"
            )
        try:
            key = sim_cache_key(profile, spec, cfg)
        except TypeError as exc:
            problems.append(
                f"point {i} ({profile.name}/{spec.label}): cannot "
                f"canonicalize for the cache key / pool boundary: {exc}"
            )
            keys.append("")
            continue
        keys.append(key)
        if on_duplicate == "error":
            j = first_at.setdefault(key, i)
            if j != i:
                problems.append(
                    f"point {i} ({profile.name}/{spec.label}) duplicates "
                    f"point {j} after normalization (identical "
                    f"sim_cache_key {key[:12]}…)"
                )
    if problems:
        raise GridValidationError(problems)
    return keys
