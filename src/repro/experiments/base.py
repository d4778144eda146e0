"""Shared experiment infrastructure.

:class:`Runner` is a memoizing front-end to :func:`repro.sim.system.simulate`
with three result layers:

1. an in-process dict keyed by the frozen (profile, spec, config) triple,
2. an optional persistent on-disk cache
   (:class:`repro.sim.store.DiskResultCache`), shared across processes and
   sessions, content-addressed by :func:`repro.sim.store.sim_cache_key`,
3. the simulator itself.

Experiments request ``runner.run(app_name, spec, ...)`` one point at a
time, or pre-submit a whole (application x design) grid with
:meth:`Runner.run_many`, which fans cache misses out over a process pool
(``jobs``/``REPRO_JOBS``) and returns results in submission order.  The
pool is normally acquired from the persistent
:class:`~repro.sim.fleet.WorkerFleet` (warm across calls and experiment
modules; ``REPRO_FLEET=0`` or ``Runner(fleet=False)`` falls back to a
per-call pool), misses are dispatched largest-estimated-work-first with
an adaptive chunksize, and — when a disk cache is active — workers
persist their own results and ship only slim ``(key, fingerprint,
counters)`` payloads back.  All paths are bit-deterministic: a parallel,
fleet-warm, slim-transported or cache-served result has the same
:meth:`~repro.sim.results.SimResult.fingerprint` as a serial cold run.

The workload scale can be set globally via the ``REPRO_SCALE`` environment
variable (1.0 = the calibrated benchmark scale; tests use much smaller
scales and only assert coarse invariants).

:class:`ExperimentReport` is the uniform result: named rows, a summary of
headline numbers, the paper's reported values, and a text rendering.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_dict_table
from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.fleet import (
    SLIM_TAG,
    _fleet_run,
    adaptive_chunksize,
    chunksize_from_env,
    fleet_env_enabled,
    get_fleet,
    order_by_estimated_work,
)
from repro.sim.results import SimResult
from repro.sim.store import DiskResultCache, cache_from_env, sim_cache_key
from repro.sim.system import simulate
from repro.sim.validation import audit_slim_transport, validate_grid
from repro.workloads.profile import AppProfile
from repro.workloads.suite import get_app

#: The paper's four proposed designs (Section VIII) in presentation order.
PROPOSED_DESIGNS: Sequence[DesignSpec] = (
    DesignSpec.private(40),
    DesignSpec.shared(40),
    DesignSpec.clustered(40, 10),
    DesignSpec.clustered(40, 10, boost=2.0),
)

BASELINE = DesignSpec.baseline()

#: One sweep point for :meth:`Runner.run_many`: ``(app, spec)`` or
#: ``(app, spec, run_kwargs)`` where ``run_kwargs`` are the keyword
#: arguments :meth:`Runner.run` accepts (scheduler, overrides, ...).
SweepPoint = Union[
    Tuple[object, DesignSpec],
    Tuple[object, DesignSpec, dict],
]


def env_scale(default: float = 1.0) -> float:
    """Workload scale from ``REPRO_SCALE`` (default: calibrated 1.0).

    A malformed value (e.g. ``REPRO_SCALE=0.2.5``) falls back to
    ``default`` *with a warning* — silently simulating at the wrong scale
    costs hours at the calibrated scale.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_SCALE={raw!r} (not a float); "
            f"using scale {default:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default


def env_jobs(default: int = 1) -> int:
    """Parallel sweep width from ``REPRO_JOBS`` (default: serial).

    Malformed values warn and fall back, mirroring :func:`env_scale`;
    values below 1 are clamped to 1.
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_JOBS={raw!r} (not an int); "
            f"using {default} job(s)",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return max(1, jobs)


def env_par_min_points(default: int = 4) -> int:
    """Minimum cache-miss count before :meth:`Runner.run_many` fans out
    over a process pool, from ``REPRO_PAR_MIN_POINTS``.

    Pool startup (interpreter forks/spawns, module imports, payload
    pickling) costs real wall clock; on small grids a serial loop wins
    — the ROADMAP's 24-point measurement had parallel-cold *slower* than
    serial-cold.  Below the threshold ``run_many`` runs its misses
    serially and records that path in :attr:`Runner.sweep_paths`.
    Malformed values warn and fall back, mirroring :func:`env_jobs`;
    values below 1 are clamped to 1 (1 = always parallel when jobs > 1).
    """
    raw = os.environ.get("REPRO_PAR_MIN_POINTS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_PAR_MIN_POINTS={raw!r} (not an "
            f"int); using {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return max(1, value)


def _fmt_value(v: object) -> str:
    """``{:.3f}`` when the value supports it, ``str`` otherwise."""
    try:
        return f"{v:.3f}"
    except (TypeError, ValueError):
        return str(v)


@dataclass
class ExperimentReport:
    """Uniform output of one experiment."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable table plus headline comparison.

        Summary/paper entries are usually floats but occasionally labels
        (e.g. an application name); formatting degrades to ``str`` for
        anything ``{:.3f}`` rejects instead of crashing the report.
        """
        parts = [format_dict_table(self.rows, self.columns,
                                   title=f"[{self.experiment}] {self.title}")]
        if self.summary:
            parts.append("measured: " + ", ".join(
                f"{k}={_fmt_value(v)}" for k, v in self.summary.items()))
        if self.paper:
            parts.append("paper:    " + ", ".join(
                f"{k}={_fmt_value(v)}" for k, v in self.paper.items()))
        return "\n".join(parts)


def _simulate_point(point: Tuple[AppProfile, DesignSpec, SimConfig]) -> SimResult:
    """Process-pool worker: one pure simulation from its frozen inputs."""
    profile, spec, cfg = point
    return simulate(profile, spec, cfg)


class Runner:
    """Memoizing simulation runner shared across experiments.

    Parameters
    ----------
    config:
        Base :class:`SimConfig`; defaults to ``SimConfig(scale=env_scale())``.
    jobs:
        Process-pool width for :meth:`run_many` misses.  ``None`` reads
        ``REPRO_JOBS`` (default 1 = serial in-process).
    cache:
        Persistent result cache: a :class:`DiskResultCache`, a directory
        path, ``None`` to consult ``REPRO_CACHE_DIR`` (off when unset),
        or ``False`` to disable the disk layer regardless of environment.
    fleet:
        Pool acquisition for :meth:`run_many` misses: ``None`` consults
        ``REPRO_FLEET`` (fleet on unless set to ``0``), ``True`` forces
        the persistent :class:`~repro.sim.fleet.WorkerFleet`, ``False``
        forces the legacy per-call ``ProcessPoolExecutor``.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
        cache: Union[DiskResultCache, str, None, bool] = None,
        fleet: Optional[bool] = None,
    ):
        self.config = config or SimConfig(scale=env_scale())
        self.jobs = env_jobs() if jobs is None else max(1, int(jobs))
        self.fleet = fleet
        if cache is None:
            self.disk_cache: Optional[DiskResultCache] = cache_from_env()
        elif cache is False:
            self.disk_cache = None
        elif isinstance(cache, DiskResultCache):
            self.disk_cache = cache
        else:
            self.disk_cache = DiskResultCache(cache)
        self._cache: Dict[tuple, SimResult] = {}
        self.sims_run = 0
        # Aggregate simulator observability (fresh runs only — cache hits
        # cost no simulator time): total wall seconds spent inside
        # GPUSystem.run and total events drained there.  Parallel sweeps
        # accumulate the per-process wall times, so the aggregate events/s
        # reflects per-sim throughput, not sweep elapsed time.
        self.sim_wall_s = 0.0
        self.sim_events = 0
        # Which execution path each run_many miss batch took
        # ("parallel[fleet:fork]", "serial[below-min-points]", ...) ->
        # count.  Surfaced by throughput_summary() so the small-grid
        # serial fallback is observable, not silent.
        self.sweep_paths: Dict[str, int] = {}
        # Fleet reuse observed by *this* runner's run_many calls: deltas
        # of the process-wide WorkerFleet counters (cold_starts,
        # warm_acquires, spinup_wall_s) across each acquire.  Surfaced by
        # throughput_summary() so pool amortization is visible from
        # `repro figures` stderr.
        self.fleet_stats: Dict[str, float] = {}

    # -- configuration resolution -----------------------------------------

    def _resolve(
        self,
        app,
        scheduler: Optional[str] = None,
        l1_latency_override: Optional[float] = None,
        gpu: Optional[GPUConfig] = None,
        scale: Optional[float] = None,
        overrides: Optional[dict] = None,
    ) -> Tuple[AppProfile, SimConfig]:
        """Resolve one request to its frozen (profile, config) pair."""
        profile = get_app(app) if isinstance(app, str) else app
        cfg = self.config
        changes = dict(overrides) if overrides else {}
        if scheduler is not None:
            changes["cta_scheduler"] = scheduler
        if l1_latency_override is not None:
            changes["l1_latency_override"] = l1_latency_override
        if gpu is not None:
            changes["gpu"] = gpu
        if scale is not None:
            changes["scale"] = scale
        if changes:
            cfg = dataclasses.replace(cfg, **changes)
        return profile, cfg

    # -- the three result layers -------------------------------------------
    #
    # ``key`` is the point's sim_cache_key when the caller already holds
    # it (run_many's pre-flight); otherwise it is derived here, and only
    # when a disk layer needs it.

    def _disk_get(
        self, point: tuple, key: Optional[str] = None
    ) -> Optional[SimResult]:
        if self.disk_cache is None:
            return None
        return self.disk_cache.get(sim_cache_key(*point) if key is None else key)

    def _disk_put(
        self, point: tuple, result: SimResult, key: Optional[str] = None
    ) -> None:
        if self.disk_cache is not None:
            self.disk_cache.put(
                sim_cache_key(*point) if key is None else key, result
            )

    def _lookup(
        self, point: tuple, key: Optional[str] = None
    ) -> Optional[SimResult]:
        """Memory layer, then disk layer (promoting disk hits to memory)."""
        result = self._cache.get(point)
        if result is None:
            result = self._disk_get(point, key)
            if result is not None:
                self._cache[point] = result
        return result

    def _store_miss(
        self, point: tuple, result: SimResult, persist: bool = True,
        key: Optional[str] = None,
    ) -> None:
        self._cache[point] = result
        self.sims_run += 1
        self.sim_wall_s += result.wall_time_s
        self.sim_events += int(round(result.wall_time_s * result.events_per_s))
        if persist:
            # Slim-transported results were already persisted by the
            # worker (persist=False skips the redundant disk write).
            self._disk_put(point, result, key)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        app,
        spec: DesignSpec,
        scheduler: Optional[str] = None,
        l1_latency_override: Optional[float] = None,
        gpu: Optional[GPUConfig] = None,
        scale: Optional[float] = None,
        overrides: Optional[dict] = None,
    ) -> SimResult:
        """Simulate (from the memory or disk cache when possible).

        ``overrides`` maps additional :class:`SimConfig` field names to
        values (used by the ablation studies).
        """
        profile, cfg = self._resolve(
            app, scheduler=scheduler, l1_latency_override=l1_latency_override,
            gpu=gpu, scale=scale, overrides=overrides,
        )
        point = (profile, spec, cfg)
        result = self._lookup(point)
        if result is None:
            result = _simulate_point(point)
            self._store_miss(point, result)
        return result

    def resolve_points(
        self, points: Iterable[SweepPoint]
    ) -> List[Tuple[AppProfile, DesignSpec, SimConfig]]:
        """Resolve sweep points to frozen (profile, spec, config) triples.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        This is the exact pool-boundary payload :meth:`run_many` submits;
        the CLI and the SimShard confirmer resolve through here so their
        :func:`~repro.sim.validation.validate_grid` pre-flight sees the
        same triples the pool would.
        """
        resolved: List[Tuple[AppProfile, DesignSpec, SimConfig]] = []
        for item in points:
            if len(item) == 2:
                app, spec = item  # type: ignore[misc]
                kwargs: dict = {}
            elif len(item) == 3:
                app, spec, kwargs = item  # type: ignore[misc]
            else:
                raise ValueError(
                    f"sweep point must be (app, spec[, kwargs]); got {item!r}"
                )
            profile, cfg = self._resolve(app, **kwargs)
            resolved.append((profile, spec, cfg))
        return resolved

    def run_many(
        self,
        points: Iterable[SweepPoint],
        jobs: Optional[int] = None,
        mp_context: Union[str, multiprocessing.context.BaseContext, None] = None,
        par_min_points: Optional[int] = None,
    ) -> List[SimResult]:
        """Run a whole sweep grid; results in submission order.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        The resolved grid is pre-flighted through
        :func:`~repro.sim.validation.validate_grid` before anything is
        submitted (duplicate points are allowed here — they collapse to
        one simulation).  Points not served by a cache layer fan out
        over a process pool when the effective ``jobs`` exceeds 1 *and*
        the miss count reaches ``par_min_points`` (default
        ``REPRO_PAR_MIN_POINTS``, 4 — pool startup dominates on smaller
        grids, so those run serially; :attr:`sweep_paths` records which
        path ran).  The pool is acquired from the persistent
        :class:`~repro.sim.fleet.WorkerFleet` unless the fleet is opted
        out (``REPRO_FLEET=0`` / ``fleet=False``), misses are dispatched
        largest-estimated-work-first with an adaptive (or
        ``REPRO_CHUNK``-pinned) chunksize, and with a disk cache active
        the workers use slim result transport (see
        :mod:`repro.sim.fleet`).  ``mp_context`` selects the pool start
        method (``"fork"``/``"spawn"`` name or a multiprocessing
        context; default: the platform default).  Ordering, fingerprints
        and ``sims_run`` accounting are identical across every path,
        because each simulation is a pure function of its frozen inputs.
        """
        resolved = self.resolve_points(points)
        keys = validate_grid(resolved, on_duplicate="collapse")

        results: List[Optional[SimResult]] = [None] * len(resolved)
        pending: Dict[tuple, List[int]] = {}
        key_of: Dict[tuple, str] = {}
        for i, (point, key) in enumerate(zip(resolved, keys)):
            key_of.setdefault(point, key)
            hit = self._lookup(point, key)
            if hit is not None:
                results[i] = hit
            else:
                pending.setdefault(point, []).append(i)

        misses = list(pending)
        if misses:
            width = self.jobs if jobs is None else max(1, int(jobs))
            floor = (
                env_par_min_points() if par_min_points is None
                else max(1, int(par_min_points))
            )
            if width > 1 and len(misses) >= max(2, floor):
                path, fresh = self._pool_misses(
                    misses, width, mp_context, key_of
                )
            else:
                path = (
                    "serial[below-min-points]"
                    if width > 1 and len(misses) > 1
                    else "serial"
                )
                fresh = [(p, _simulate_point(p), True) for p in misses]
            self.sweep_paths[path] = self.sweep_paths.get(path, 0) + 1
            for point, result, persist in fresh:
                self._store_miss(
                    point, result, persist=persist, key=key_of[point]
                )
                for i in pending[point]:
                    results[i] = result
        return results  # type: ignore[return-value]

    # -- pool dispatch ------------------------------------------------------

    def _pool_misses(
        self,
        misses: List[tuple],
        width: int,
        mp_context: Union[str, multiprocessing.context.BaseContext, None],
        key_of: Dict[tuple, str],
    ) -> Tuple[str, List[Tuple[tuple, SimResult, bool]]]:
        """Fan the misses out over a pool; returns the taken path name
        and ``(point, result, persist)`` triples in ``misses`` order.

        Misses are dispatched largest-estimated-work-first so one heavy
        point cannot land at the end of the schedule and stretch the
        straggler tail; the chunksize comes from ``REPRO_CHUNK`` or
        :func:`~repro.sim.fleet.adaptive_chunksize` (the old hard-coded
        ``chunksize=1`` paid one IPC round trip per point on both the
        fleet and the legacy path).
        """
        ctx = (
            multiprocessing.get_context(mp_context)
            if isinstance(mp_context, str) else mp_context
        )
        ordered = order_by_estimated_work(misses)
        chunk = chunksize_from_env()
        if chunk is None:
            chunk = adaptive_chunksize(len(ordered), width)
        use_fleet = (
            fleet_env_enabled() if self.fleet is None else bool(self.fleet)
        )
        if use_fleet:
            method = (
                ctx.get_start_method() if ctx is not None
                else multiprocessing.get_start_method()
            )
            fleet = get_fleet()
            before = fleet.stats()
            pool = fleet.acquire(width, mp_context=ctx)
            self._note_fleet(before, fleet.stats())
            root = (
                str(self.disk_cache.root)
                if self.disk_cache is not None else None
            )
            tasks = [(p, root) for p in ordered]
            try:
                payloads = list(pool.map(_fleet_run, tasks, chunksize=chunk))
            except BrokenProcessPool:
                # A dead executor must never be handed out again; drop it
                # so the next acquire builds a fresh pool.
                fleet.invalidate(width, mp_context=ctx)
                raise
            by_point = {
                p: self._receive_transport(p, payload, key_of)
                for p, payload in zip(ordered, payloads)
            }
            path = f"parallel[fleet:{method}]"
            return path, [(p,) + by_point[p] for p in misses]
        # Legacy per-call pool (REPRO_FLEET=0 / Runner(fleet=False)).
        method = (
            ctx.get_start_method() if ctx is not None
            else multiprocessing.get_start_method()
        )
        path = f"parallel[{method}]"
        with ProcessPoolExecutor(
            max_workers=min(width, len(ordered)), mp_context=ctx
        ) as pool:
            out = list(pool.map(_simulate_point, ordered, chunksize=chunk))
        by_legacy = dict(zip(ordered, out))
        return path, [(p, by_legacy[p], True) for p in misses]

    def _receive_transport(
        self, point: tuple, payload: object, key_of: Dict[tuple, str]
    ) -> Tuple[SimResult, bool]:
        """Turn one fleet-worker payload into ``(result, persist)``.

        Full :class:`SimResult` payloads pass through (and still need the
        parent-side disk write).  Slim payloads are rehydrated from the
        disk cache and audited against the worker's fingerprint hash
        (:func:`~repro.sim.validation.audit_slim_transport`); any audit
        problem downgrades the point to an in-process re-simulation —
        correctness over transport speed.
        """
        if not (
            isinstance(payload, tuple)
            and len(payload) == 5
            and payload[0] == SLIM_TAG
        ):
            return payload, True  # type: ignore[return-value]
        _tag, key, fp_sha, wall_s, events_per_s = payload
        rehydrated = (
            self.disk_cache.get(key) if self.disk_cache is not None else None
        )
        problems = audit_slim_transport(
            key_of.get(point, ""), key, fp_sha, rehydrated
        )
        if problems:
            warnings.warn(
                "slim result transport failed its audit ("
                + "; ".join(problems) + "); re-simulating in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            return _simulate_point(point), True
        assert rehydrated is not None
        # The disk entry drops the observability fields; carry the
        # worker's measured wall clock over so throughput accounting is
        # identical to full-pickle transport.
        rehydrated.wall_time_s = wall_s
        rehydrated.events_per_s = events_per_s
        return rehydrated, False

    def _note_fleet(
        self, before: Dict[str, float], after: Dict[str, float]
    ) -> None:
        """Fold one acquire's fleet-counter deltas into ``fleet_stats``."""
        for key in ("cold_starts", "warm_acquires", "spinup_wall_s"):
            delta = after.get(key, 0.0) - before.get(key, 0.0)
            if delta:
                self.fleet_stats[key] = self.fleet_stats.get(key, 0.0) + delta

    def throughput_summary(self) -> str:
        """One-line aggregate of simulator throughput (``repro figures``,
        bench harness), including which sweep path(s) ran the misses.
        Empty when every request was cache-served."""
        if self.sims_run == 0 or self.sim_wall_s <= 0.0:
            return ""
        rate = self.sim_events / self.sim_wall_s
        line = (
            f"{self.sims_run} sim(s), {self.sim_wall_s:.1f}s simulator time, "
            f"{rate:,.0f} events/s"
        )
        if self.sweep_paths:
            paths = ", ".join(
                f"{k} x{n}" for k, n in sorted(self.sweep_paths.items())
            )
            line += f" [{paths}]"
        if self.fleet_stats:
            cold = int(self.fleet_stats.get("cold_starts", 0))
            warm = int(self.fleet_stats.get("warm_acquires", 0))
            spin = self.fleet_stats.get("spinup_wall_s", 0.0)
            line += (
                f" [fleet: {cold} cold / {warm} warm acquire(s), "
                f"spin-up {spin:.2f}s]"
            )
        return line

    def speedup(self, app, spec: DesignSpec, **kwargs) -> float:
        """IPC of ``spec`` normalized to the baseline design (same config)."""
        base = self.run(app, BASELINE, **kwargs)
        res = self.run(app, spec, **kwargs)
        return res.speedup_vs(base)

    def result_fingerprints(self) -> Dict[str, Dict[str, object]]:
        """Bit-exact identity of every memoized result, keyed by the
        content-addressed cache key (comparing two runners that covered
        the same grid — e.g. serial vs parallel — is a dict equality)."""
        return {
            sim_cache_key(*point): result.fingerprint()
            for point, result in self._cache.items()
        }

    def clear(self) -> None:
        """Drop the in-memory layer (the disk cache is left untouched)."""
        self._cache.clear()


_DEFAULT: Optional[Runner] = None


def default_runner() -> Runner:
    """Process-wide shared runner (used by the benchmark harness).

    Revalidated against the environment on every call: if ``REPRO_SCALE``
    changed since the cached runner was built, a fresh runner (with a
    fresh memo and current ``REPRO_JOBS``/``REPRO_CACHE_DIR`` settings)
    replaces it — a stale runner would silently simulate at the old scale
    *and* serve results memoized under it.
    """
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.config.scale != env_scale():
        _DEFAULT = Runner()
    return _DEFAULT


def profile_for(app) -> AppProfile:
    return get_app(app) if isinstance(app, str) else app
