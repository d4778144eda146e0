"""Shared experiment infrastructure.

:class:`Runner` is a memoizing front-end to :func:`repro.sim.system.simulate`
with three result layers:

1. an in-process dict keyed by :func:`repro.sim.store.sim_cache_key`,
2. an optional persistent on-disk cache
   (:class:`repro.sim.store.DiskResultCache`), shared across processes and
   sessions, under the same key,
3. the simulator itself.

Both layers share one identity, so a point's key is derived once — by
the :func:`~repro.sim.validation.validate_grid` pre-flight in
:meth:`Runner.run_many`, or once per :meth:`Runner.run` call.  Points
that differ only in fingerprint-neutral fields (``SimConfig.watchdog``,
``AppProfile.suite``, ...) share one memo entry, as they share one disk
entry; equal objects that key apart (``SimConfig(scale=1)`` and
``SimConfig(scale=1.0)``) get two, as on disk.

Experiments request ``runner.run(app_name, spec, ...)`` one point at a
time, or pre-submit a whole (application x design) grid with
:meth:`Runner.run_many`, which fans cache misses out over the persistent
:class:`~repro.sim.fleet.WorkerFleet` (``jobs``/``REPRO_JOBS`` wide, warm
across calls and experiment modules) and returns results in submission
order.  Misses are dispatched largest-estimated-work-first with an
adaptive chunksize; workers send whole results back, and the parent
memoizes and persists each one exactly as it does a serial miss.  Both
paths are bit-deterministic: a parallel, fleet-warm or cache-served
result has the same :meth:`~repro.sim.results.SimResult.fingerprint` as
a serial cold run.

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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_dict_table
from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.fleet import (
    _fleet_run,
    adaptive_chunksize,
    get_fleet,
    order_by_estimated_work,
)
from repro.sim.results import SimResult
from repro.sim.store import DiskResultCache, cache_from_env, sim_cache_key
from repro.sim.system import simulate
from repro.sim.validation import validate_grid
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
    """One pure simulation from its frozen inputs (the serial path)."""
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
        Accepted and ignored: the persistent
        :class:`~repro.sim.fleet.WorkerFleet` is the only pool.  The
        keyword stays because existing callers (the ``perfbench``
        harness builds ``Runner(..., jobs=1, fleet=False)``) still pass
        it.
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
        if cache is None:
            self.disk_cache: Optional[DiskResultCache] = cache_from_env()
        elif cache is False:
            self.disk_cache = None
        elif isinstance(cache, DiskResultCache):
            self.disk_cache = cache
        else:
            self.disk_cache = DiskResultCache(cache)
        self._cache: Dict[str, SimResult] = {}
        self.sims_run = 0
        # Aggregate simulator observability (fresh runs only — cache hits
        # cost no simulator time): total wall seconds spent inside
        # GPUSystem.run and total events drained there.  Parallel sweeps
        # accumulate the per-process wall times, so the aggregate events/s
        # reflects per-sim throughput, not sweep elapsed time.
        self.sim_wall_s = 0.0
        self.sim_events = 0
        # Which execution path each run_many miss batch took
        # ("parallel[fleet:fork]", "serial", ...) -> count.  Surfaced by
        # throughput_summary() so a sweep that ran serially is visible.
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

    def _lookup(self, key: str) -> Optional[SimResult]:
        """Memory layer, then disk layer (promoting disk hits to memory)."""
        result = self._cache.get(key)
        if result is None and self.disk_cache is not None:
            result = self.disk_cache.get(key)
            if result is not None:
                self._cache[key] = result
        return result

    def _store_miss(self, key: str, result: SimResult) -> None:
        self._cache[key] = result
        self.sims_run += 1
        self.sim_wall_s += result.wall_time_s
        self.sim_events += int(round(result.wall_time_s * result.events_per_s))
        if self.disk_cache is not None:
            # The disk layer is an accelerator: a failed write (a full
            # disk, a read-only directory) loses one entry, never the
            # result or the rest of the sweep.
            try:
                self.disk_cache.put(key, result)
            except OSError as exc:
                warnings.warn(
                    f"result cache write failed for key {key}: {exc}",
                    RuntimeWarning, stacklevel=2,
                )

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
        key = sim_cache_key(profile, spec, cfg)
        result = self._lookup(key)
        if result is None:
            result = _simulate_point((profile, spec, cfg))
            self._store_miss(key, result)
        return result

    def resolve_points(
        self, points: Iterable[SweepPoint]
    ) -> List[Tuple[AppProfile, DesignSpec, SimConfig]]:
        """Resolve sweep points to frozen (profile, spec, config) triples.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        This is the exact pool-boundary payload :meth:`run_many` submits;
        the CLI resolves through here so its
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
    ) -> List[SimResult]:
        """Run a whole sweep grid; results in submission order.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        The resolved grid is pre-flighted through
        :func:`~repro.sim.validation.validate_grid` before anything is
        submitted (duplicate points are allowed here — they collapse to
        one simulation).  When the effective ``jobs`` exceeds 1 and at
        least two distinct points miss every cache layer, the misses fan
        out over the persistent :class:`~repro.sim.fleet.WorkerFleet`,
        largest-estimated-work-first with an adaptive chunksize (see
        :mod:`repro.sim.fleet`); otherwise they run serially in-process.
        :attr:`sweep_paths` records which path ran.  ``mp_context``
        selects the pool start method (``"fork"``/``"spawn"`` name or a
        multiprocessing context; default: the platform default).
        Ordering, fingerprints, ``sims_run`` accounting and disk-cache
        writes are identical on both paths, because each simulation is a
        pure function of its frozen inputs.
        """
        resolved = self.resolve_points(points)
        keys = validate_grid(resolved, on_duplicate="collapse")

        results: List[Optional[SimResult]] = [None] * len(resolved)
        # key -> indices of the points that missed every cache layer.
        pending: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            slots = pending.get(key)
            if slots is not None:
                slots.append(i)
                continue
            hit = self._lookup(key)
            if hit is not None:
                results[i] = hit
            else:
                pending[key] = [i]

        if pending:
            misses = [resolved[slots[0]] for slots in pending.values()]
            width = self.jobs if jobs is None else max(1, int(jobs))
            if width > 1 and len(misses) > 1:
                path, fresh = self._pool_misses(misses, width, mp_context)
            else:
                path, fresh = "serial", [_simulate_point(p) for p in misses]
            self.sweep_paths[path] = self.sweep_paths.get(path, 0) + 1
            for (key, slots), result in zip(pending.items(), fresh):
                self._store_miss(key, result)
                for i in slots:
                    results[i] = result
        return results  # type: ignore[return-value]

    # -- pool dispatch ------------------------------------------------------

    def _pool_misses(
        self,
        misses: List[tuple],
        width: int,
        mp_context: Union[str, multiprocessing.context.BaseContext, None],
    ) -> Tuple[str, List[SimResult]]:
        """Fan the misses out over the warm fleet; returns the path name
        and the results in ``misses`` order.

        Misses are dispatched largest-estimated-work-first so one heavy
        point cannot land at the end of the schedule and stretch the
        straggler tail, in chunks sized by
        :func:`~repro.sim.fleet.adaptive_chunksize`.
        """
        fleet = get_fleet()
        before = fleet.stats()
        pool = fleet.acquire(width, mp_context=mp_context)
        self._note_fleet(before, fleet.stats())
        ordered = order_by_estimated_work(misses)
        chunk = adaptive_chunksize(len(ordered), width)
        try:
            by_point = dict(
                zip(ordered, pool.map(_fleet_run, ordered, chunksize=chunk))
            )
        except BrokenProcessPool:
            # A dead executor must never be handed out again; drop it so
            # the next acquire builds a fresh pool.
            fleet.invalidate(width, mp_context=mp_context)
            raise
        path = f"parallel[fleet:{fleet.start_method(mp_context)}]"
        return path, [by_point[p] for p in misses]

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
        return {key: result.fingerprint() for key, result in self._cache.items()}

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
