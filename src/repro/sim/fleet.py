"""SimFleet: the persistent, warm, process-wide worker pool for sweeps.

:meth:`repro.experiments.base.Runner.run_many` fans a grid's cache misses
out over this fleet whenever its width is above 1.  A pool costs real
wall clock to build — interpreter forks/spawns, module imports — so the
fleet builds each one once per process and reuses it:

* :class:`WorkerFleet` — a process-wide registry of live pools keyed by
  ``(start-method, width)``.  The first ``acquire()`` for a key pays the
  cold start (pool construction plus a warm barrier that forces every
  worker to spawn and pre-import the sim stack); every later ``acquire()``
  returns the same live pool in microseconds.  ``shutdown()`` is explicit
  and also registered via ``atexit``.
* **Worker-side stream caching** — workers run
  :func:`repro.sim.system.simulate_point`, the function a serial miss
  runs, which materializes each point's NumPy access streams through a
  small per-process LRU keyed by the *profile* component of the cache
  key.  A grid that visits the same
  :class:`~repro.workloads.profile.AppProfile` under many designs
  generates its workload once per worker, not once per point.  Cache
  hits are bit-identical to recomputation (generation is a pure function
  of the profile and scale), so results cannot depend on hit/miss luck.
* **Adaptive chunking and largest-first ordering** —
  :func:`adaptive_chunksize` sizes each ``pool.map`` chunk and
  :func:`order_by_estimated_work` fronts the heaviest points so the
  straggler tail shrinks.

Workers return whole :class:`~repro.sim.results.SimResult` objects; the
parent memoizes and persists them exactly as it does a serial miss.
Everything here is sweep *orchestration*: nothing in it can change what
a simulation computes, only how fast the grid drains — the identity
tests pin ``result_fingerprints()`` equality across serial, fork, spawn
and warm-reuse sweeps.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "WorkerFleet",
    "adaptive_chunksize",
    "estimate_work",
    "order_by_estimated_work",
    "get_fleet",
    "shutdown_fleet",
]


# ------------------------------------------------------- scheduling helpers


def adaptive_chunksize(n_tasks: int, width: int) -> int:
    """Chunksize for ``pool.map`` over ``n_tasks`` misses on ``width``
    workers: about four waves per worker, capped at 8.

    ``chunksize=1`` maximizes balance but pays one IPC round trip per
    point; huge chunks amortize IPC but let one unlucky worker hold the
    whole tail.  Four waves keeps the tail short even when per-point cost
    varies by the ~10x spread real grids show, while cutting round trips
    by the chunk factor.
    """
    if n_tasks <= 0 or width <= 0:
        return 1
    return max(1, min(8, -(-n_tasks // (max(1, width) * 4))))


def estimate_work(point: Tuple) -> int:
    """Relative cost estimate of one resolved (profile, spec, config)
    point: its total access count at the configured scale.  Event count
    tracks accesses closely enough for scheduling (it only needs rank
    order, not absolute cost)."""
    profile, _spec, cfg = point
    return int(profile.scaled(cfg.scale).total_accesses)


def order_by_estimated_work(points: Sequence[Tuple]) -> List[Tuple]:
    """Misses reordered largest-estimated-work-first (ties keep submission
    order, so the ordering is deterministic).  Heavy points dispatched
    first cannot land at the end of the schedule and stretch the tail."""
    indexed = list(enumerate(points))
    indexed.sort(key=lambda pair: (-estimate_work(pair[1]), pair[0]))
    return [p for _i, p in indexed]


# ------------------------------------------------------ worker-side helpers

def _fleet_warm_init() -> None:
    """Pool initializer: pre-import the sim stack so the first real task
    a worker receives does not pay import latency.  A forking parent has
    already imported all of it (the ``Runner`` driving the fleet lives in
    ``repro.experiments.base``), so under fork this is a no-op; under
    spawn it front-loads the worker's import cost into the warm
    barrier."""
    import repro.experiments.base      # noqa: F401
    import repro.sim.system            # noqa: F401
    import repro.workloads.suite       # noqa: F401


def _fleet_warm(index: int) -> int:
    """Warm-barrier task: forces worker processes to actually spawn (the
    executor creates them lazily) and proves each can round-trip a task.
    Returns its pid so the barrier can report how many workers answered."""
    return os.getpid()


# ------------------------------------------------------------ the fleet


def _pool_is_live(pool: ProcessPoolExecutor) -> bool:
    """False once the executor has marked itself broken or any of its
    worker processes has exited.  A worker's sentinel is readable from
    the moment it dies, while ``is_alive()`` can still say True until
    the process is reaped."""
    if pool._broken:
        return False
    sentinels = [proc.sentinel for proc in pool._processes.values()]
    return not multiprocessing.connection.wait(sentinels, timeout=0)


class WorkerFleet:
    """Process-wide registry of live, warm process pools.

    Pools are keyed by ``(start-method, width)`` so a fork sweep and a
    spawn sweep (or different widths) never share workers, and are
    created lazily on first :meth:`acquire`.  The fleet never shrinks on
    its own: pools live until :meth:`shutdown` (or :meth:`invalidate`
    after a broken-pool error), which is what makes the second sweep of a
    session nearly spin-up-free.
    """

    def __init__(self) -> None:
        self._pools: Dict[Tuple[str, int], ProcessPoolExecutor] = {}
        #: Cold pool constructions (spin-up paid) vs warm reuses.
        self.cold_starts = 0
        self.warm_acquires = 0
        #: Total wall seconds spent constructing + warming pools.
        self.spinup_wall_s = 0.0

    @staticmethod
    def start_method(
        mp_context: Union[str, multiprocessing.context.BaseContext, None],
    ) -> str:
        """The start-method name ``mp_context`` selects (the platform
        default for ``None``): one half of a pool's registry key."""
        if isinstance(mp_context, str):
            return mp_context
        if mp_context is not None:
            return mp_context.get_start_method()
        return multiprocessing.get_start_method()

    def acquire(
        self,
        width: int,
        mp_context: Union[str, multiprocessing.context.BaseContext, None] = None,
    ) -> ProcessPoolExecutor:
        """A live pool of ``width`` workers under ``mp_context``'s start
        method — warm when one exists, freshly constructed (and warmed
        through the barrier) otherwise.

        A warm pool that lost a worker while it sat idle (the executor
        marked itself broken, or a worker process is no longer alive)
        is dropped and replaced by a cold start: handing it out would
        fail the next sweep with ``BrokenProcessPool``."""
        width = max(1, int(width))
        method = self.start_method(mp_context)
        key = (method, width)
        pool = self._pools.get(key)
        if pool is not None:
            if _pool_is_live(pool):
                self.warm_acquires += 1
                return pool
            del self._pools[key]
            # Stop the survivors first.  A worker that died idle may have
            # held the call queue's read lock; a survivor blocked on it
            # never takes its shutdown sentinel, and the executor's join
            # of it would hang interpreter exit.
            for proc in list(pool._processes.values()):
                proc.terminate()
            pool.shutdown(wait=False)
        ctx = multiprocessing.get_context(method)
        # Spin-up is host observability (recorded in fleet stats and the
        # sweep baseline), never simulated behaviour.
        t0 = time.perf_counter()
        pool = ProcessPoolExecutor(
            max_workers=width, mp_context=ctx, initializer=_fleet_warm_init
        )
        # Warm barrier: one trivial task per worker forces the executor
        # to spawn its full complement now (it creates processes lazily),
        # so the first real sweep is not serialized behind worker starts.
        list(pool.map(_fleet_warm, range(width)))
        self.spinup_wall_s += time.perf_counter() - t0
        self._pools[key] = pool
        self.cold_starts += 1
        return pool

    def stats(self) -> Dict[str, float]:
        """Reuse counters snapshot (consumed by ``Runner`` accounting)."""
        return {
            "cold_starts": float(self.cold_starts),
            "warm_acquires": float(self.warm_acquires),
            "spinup_wall_s": self.spinup_wall_s,
            "live_pools": float(len(self._pools)),
        }

    def invalidate(
        self,
        width: Optional[int] = None,
        mp_context: Union[str, multiprocessing.context.BaseContext, None] = None,
    ) -> None:
        """Tear down one pool (or all, when ``width`` is ``None``): the
        recovery path after a ``BrokenProcessPool``, where the dead
        executor must not be handed out again."""
        if width is None:
            doomed = list(self._pools)
        else:
            doomed = [(self.start_method(mp_context), max(1, int(width)))]
        for key in doomed:
            pool = self._pools.pop(key, None)
            if pool is not None:
                pool.shutdown(wait=False)

    def shutdown(self) -> None:
        """Shut every pool down and forget it (stats are kept)."""
        for pool in self._pools.values():
            pool.shutdown(wait=True)
        self._pools.clear()

    def __repr__(self) -> str:
        return (
            f"WorkerFleet(pools={sorted(self._pools)}, "
            f"cold={self.cold_starts}, warm={self.warm_acquires}, "
            f"spinup={self.spinup_wall_s:.2f}s)"
        )


_FLEET: Optional[WorkerFleet] = None


def get_fleet() -> WorkerFleet:
    """The process-wide fleet, created on first use.

    The singleton holds live pools only — never results or simulated
    state — so it cannot bypass the cache key; results flow exclusively
    through the frozen grid points and the worker return values.
    """
    global _FLEET  # simpure: disable=SP401 -- pool registry, not sim state
    if _FLEET is None:
        _FLEET = WorkerFleet()
        atexit.register(shutdown_fleet)
    return _FLEET


def shutdown_fleet() -> None:
    """Explicitly shut the fleet down (idempotent; also the atexit hook).

    Tests use this to force a cold fleet; long-lived hosts can call it to
    release worker processes between sweep bursts."""
    global _FLEET  # simpure: disable=SP401 -- pool registry, not sim state
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None
