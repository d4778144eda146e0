"""Per-handler event profiler for the discrete-event engine.

:class:`EventProfiler` attaches to an :class:`~repro.sim.engine.Engine`
(:meth:`~repro.sim.engine.Engine.attach_profiler`); the engine's profiled
drain loop brackets every callback with :attr:`EventProfiler.clock` and
accumulates, per handler function, the number of events dispatched and
the wall-clock *self-time* spent inside the callback.  Event order is
identical to the uninstrumented loop, so a profiled simulation produces
a bit-identical :meth:`~repro.sim.results.SimResult.fingerprint` — the
profiler observes, it never steers.

Handler keys are the underlying functions (``__func__`` of the bound
methods the system schedules, or the function itself for the fused Sh40
closures), so all events of one handler aggregate into one row
regardless of which payload they carried.  A profiled run calls the same
handlers as an unprofiled one, so the table measures the production
dispatch path of every design, the fused tier included.

Wall-clock readings break bit-reproducibility only of the *profile*, not
of the simulation; the clock is intentionally real time.  Surfaced via
``repro profile`` (CLI table) and the ``wall_time_s`` / ``events_per_s``
observability fields on :class:`~repro.sim.results.SimResult` (both are
excluded from fingerprints and the persistent result cache).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["EventProfiler", "ProfileRow", "profile_simulation"]


@dataclass(frozen=True)
class ProfileRow:
    """One handler's aggregate in a profile report."""

    handler: str
    events: int
    self_s: float
    pct: float
    us_per_event: float
    # Net traced heap bytes per event (0.0 unless the profiler ran with
    # trace_alloc; negative means the handler freed more than it allocated,
    # e.g. the pooled-completion path returning requests to the free list).
    alloc_b_per_event: float = 0.0


class EventProfiler:
    """Accumulates per-handler event counts and self-time.

    ``clock`` defaults to the highest-resolution monotonic wall clock;
    tests may inject a deterministic fake.  With ``trace_alloc=True`` the
    engine's profiled drain also samples tracemalloc around each callback
    and fills :attr:`alloc_bytes` with net traced bytes per handler
    (``repro profile --alloc``); the caller must have tracemalloc running.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 trace_alloc: bool = False):
        self.clock: Callable[[], float] = (
            clock if clock is not None else _time.perf_counter
        )
        self.trace_alloc = trace_alloc
        self.counts: Dict[Any, int] = {}
        self.self_time: Dict[Any, float] = {}
        self.alloc_bytes: Dict[Any, int] = {}
        # Total wall time spent inside the profiled drain loop (includes
        # heap churn and dispatch overhead, not just handler bodies).
        self.wall_time = 0.0
        # Dispatch tier of the profiled system (GPUSystem.dispatch_tier;
        # set by profile_simulation).  Profiling changes the drain loop,
        # not the handlers, so this is also the tier the table measured.
        self.production_tier: Optional[str] = None

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    @property
    def total_self_time(self) -> float:
        return sum(self.self_time.values())

    def events_per_s(self) -> float:
        """Overall throughput of the profiled drain (0.0 before any run)."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.total_events / self.wall_time

    def rows(self) -> List[ProfileRow]:
        """Per-handler aggregates, most expensive (self-time) first."""
        total = self.total_self_time
        out = []
        for key, count in self.counts.items():
            self_s = self.self_time.get(key, 0.0)
            out.append(
                ProfileRow(
                    handler=getattr(key, "__qualname__", repr(key)),
                    events=count,
                    self_s=self_s,
                    pct=(100.0 * self_s / total) if total > 0.0 else 0.0,
                    us_per_event=(1e6 * self_s / count) if count else 0.0,
                    alloc_b_per_event=(
                        self.alloc_bytes.get(key, 0) / count if count else 0.0
                    ),
                )
            )
        out.sort(key=lambda r: (-r.self_s, r.handler))
        return out

    def render(self, top: int = 0) -> str:
        """Human-readable table (``top`` > 0 limits to the N hottest rows).

        A truncated table says so: an ellipsis line between the shown
        rows and the totals states how many handlers are hidden and what
        share of self-time the shown rows cover, so the 100% ``total``
        row (which always aggregates *every* handler) cannot be misread
        as "these N rows are the whole profile".
        """
        all_rows = self.rows()
        rows = all_rows[:top] if top > 0 else all_rows
        with_alloc = bool(self.alloc_bytes)
        width = max([len("handler")] + [len(r.handler) for r in rows])
        header = f"{'handler':<{width}}  {'events':>10}  {'self(s)':>9}  {'%':>6}  {'us/ev':>8}"
        rule = f"{'-' * width}  {'-' * 10}  {'-' * 9}  {'-' * 6}  {'-' * 8}"
        if with_alloc:
            header += f"  {'B/ev':>8}"
            rule += f"  {'-' * 8}"
        lines = [header, rule]
        for r in rows:
            line = (
                f"{r.handler:<{width}}  {r.events:>10}  {r.self_s:>9.3f}  "
                f"{r.pct:>6.1f}  {r.us_per_event:>8.2f}"
            )
            if with_alloc:
                line += f"  {r.alloc_b_per_event:>8.1f}"
            lines.append(line)
        if len(rows) < len(all_rows):
            shown_pct = sum(r.pct for r in rows)
            lines.append(
                f"... top {len(rows)} of {len(all_rows)} handlers shown "
                f"({shown_pct:.1f}% of self-time); "
                f"{len(all_rows) - len(rows)} hidden"
            )
        lines.append(
            f"{'total':<{width}}  {self.total_events:>10}  "
            f"{self.total_self_time:>9.3f}  {100.0 if all_rows else 0.0:>6.1f}  "
            f"{(1e6 * self.total_self_time / self.total_events) if self.total_events else 0.0:>8.2f}"
        )
        if self.wall_time > 0.0:
            lines.append(
                f"wall {self.wall_time:.3f} s, {self.events_per_s():,.0f} events/s "
                "(drain loop, incl. heap/dispatch overhead)"
            )
        return "\n".join(lines)


def profile_simulation(workload, spec, config=None, clock=None,
                       trace_alloc=False):
    """Run one simulation under the profiler.

    Returns ``(result, profiler)``; the result's fingerprint is
    bit-identical to an unprofiled run of the same config, and
    ``profiler.production_tier`` names the dispatch tier that run takes.
    Imports the system lazily — the profiler itself has no simulator
    dependencies, so the engine can import this module without a cycle.

    ``trace_alloc=True`` additionally attributes net heap allocation to
    each handler via :mod:`tracemalloc` (started/stopped here; substantial
    slowdown, diagnostic use only — timing numbers from such a run are
    not comparable to plain profiles).
    """
    from repro.sim.system import GPUSystem

    system = GPUSystem(workload, spec, config)
    profiler = EventProfiler(clock, trace_alloc=trace_alloc)
    profiler.production_tier = system.dispatch_tier
    system.engine.attach_profiler(profiler)
    if trace_alloc:
        import tracemalloc

        tracemalloc.start()
        try:
            result = system.run()
        finally:
            tracemalloc.stop()
    else:
        result = system.run()
    return result, profiler
