"""Tests for SimFleet: the persistent warm worker pool, the per-worker
stream cache, adaptive scheduling, and the parent-side handling of
pooled results.

The load-bearing property throughout is *identity*: fork vs spawn and
cold vs warm pools are pure orchestration choices — every path must
produce the same ``result_fingerprints()`` as a serial sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

import repro.experiments.base as base_mod
from repro.experiments.base import BASELINE, PROPOSED_DESIGNS, Runner
from repro.sim.config import SimConfig
from repro.sim.fleet import (
    STREAM_CACHE_CAP,
    WorkerFleet,
    _STREAM_CACHE,
    adaptive_chunksize,
    estimate_work,
    get_fleet,
    materialize_workload,
    order_by_estimated_work,
    shutdown_fleet,
)
from repro.sim.store import DiskResultCache, sim_cache_key
from repro.workloads.generator import generate_workload
from repro.workloads.suite import get_app

SCALE = 0.05
BOOST = PROPOSED_DESIGNS[-1]
GRID = [
    ("C-BLK", BASELINE), ("C-BLK", BOOST),
    ("T-AlexNet", BASELINE), ("T-AlexNet", BOOST),
]


def fresh_runner(**kwargs) -> Runner:
    kwargs.setdefault("cache", False)
    return Runner(SimConfig(scale=SCALE), **kwargs)


def sweep(runner: Runner, **kwargs):
    kwargs.setdefault("jobs", 2)
    return runner.run_many(GRID, **kwargs)


# ------------------------------------------------------------- scheduling


class TestScheduling:
    def test_adaptive_chunksize_bounds(self):
        assert adaptive_chunksize(0, 4) == 1
        assert adaptive_chunksize(1, 4) == 1
        assert adaptive_chunksize(24, 4) == 2      # ~4 waves of 4 workers
        assert adaptive_chunksize(24, 0) == 1      # degenerate width
        assert adaptive_chunksize(10_000, 2) == 8  # hard cap

    def test_order_by_estimated_work_largest_first(self):
        runner = fresh_runner()
        points = runner.resolve_points(GRID)
        ordered = order_by_estimated_work(points)
        costs = [estimate_work(p) for p in ordered]
        assert costs == sorted(costs, reverse=True)
        assert sorted(map(id, ordered)) == sorted(map(id, points))

    def test_order_is_deterministic_on_ties(self):
        runner = fresh_runner()
        points = runner.resolve_points([("C-BLK", BASELINE), ("C-BLK", BOOST)])
        # Same profile and scale -> identical estimates; submission order
        # must break the tie.
        assert order_by_estimated_work(points) == list(points)


# ----------------------------------------------------------- env resolvers


class TestEnvResolvers:
    """Nothing in the environment selects or tunes the pool any more;
    these pin that the retired variables stay unread."""

    def test_fleet_enabled_by_default(self, monkeypatch):
        # REPRO_FLEET=0 used to opt out of the fleet; it is ignored now.
        monkeypatch.setenv("REPRO_FLEET", "0")
        runner = fresh_runner()
        sweep(runner)
        assert runner.sweep_paths == {
            f"parallel[fleet:{multiprocessing.get_start_method()}]": 1
        }

    def test_stream_cache_cap(self, monkeypatch):
        # The LRU capacity is a constant; REPRO_STREAM_CACHE=0 used to
        # switch caching off and is ignored now.
        assert STREAM_CACHE_CAP == 8
        monkeypatch.setenv("REPRO_STREAM_CACHE", "0")
        _STREAM_CACHE.clear()
        try:
            prof = get_app("C-BLK")
            a = materialize_workload(prof, SCALE)
            assert materialize_workload(prof, SCALE) is a
            assert len(_STREAM_CACHE) == 1
        finally:
            _STREAM_CACHE.clear()


# ------------------------------------------------------- stream cache


class TestStreamCache:
    def setup_method(self):
        _STREAM_CACHE.clear()

    def teardown_method(self):
        _STREAM_CACHE.clear()

    def test_hit_is_bit_identical_to_fresh_generation(self):
        prof = get_app("C-BLK")
        cached = materialize_workload(prof, SCALE)
        again = materialize_workload(prof, SCALE)
        assert again is cached  # LRU hit, not a regeneration
        fresh = generate_workload(prof, SCALE)
        assert len(fresh.streams) == len(cached.streams)
        for a, b in zip(fresh.streams, cached.streams):
            assert np.array_equal(a.lines, b.lines)
            assert np.array_equal(a.kinds, b.kinds)

    def test_distinct_profiles_do_not_contaminate(self):
        a = materialize_workload(get_app("C-BLK"), SCALE)
        b = materialize_workload(get_app("T-AlexNet"), SCALE)
        assert len(_STREAM_CACHE) == 2
        assert a.profile.name == "C-BLK"
        assert b.profile.name == "T-AlexNet"
        # A's entry is untouched by B's materialization.
        assert materialize_workload(get_app("C-BLK"), SCALE) is a

    def test_scale_is_part_of_the_key(self):
        prof = get_app("C-BLK")
        a = materialize_workload(prof, SCALE)
        b = materialize_workload(prof, SCALE * 2)
        assert a is not b
        assert len(_STREAM_CACHE) == 2

    def test_lru_eviction(self):
        prof = get_app("C-BLK")
        a = materialize_workload(prof, SCALE)
        # STREAM_CACHE_CAP more distinct stream sets evict the oldest.
        for i in range(1, STREAM_CACHE_CAP + 1):
            materialize_workload(prof, SCALE / (1 + i))
        assert len(_STREAM_CACHE) == STREAM_CACHE_CAP
        assert materialize_workload(prof, SCALE) is not a


# --------------------------------------------------------- the fleet itself


class TestWorkerFleet:
    def test_cold_then_warm_acquire(self):
        fleet = WorkerFleet()
        try:
            pool = fleet.acquire(1)
            assert fleet.cold_starts == 1
            assert fleet.warm_acquires == 0
            assert fleet.spinup_wall_s > 0
            assert fleet.acquire(1) is pool
            assert fleet.warm_acquires == 1
        finally:
            fleet.shutdown()
        assert fleet.stats()["live_pools"] == 0

    def test_distinct_widths_get_distinct_pools(self):
        fleet = WorkerFleet()
        try:
            assert fleet.acquire(1) is not fleet.acquire(2)
            assert fleet.cold_starts == 2
        finally:
            fleet.shutdown()

    def test_invalidate_forces_recreation(self):
        fleet = WorkerFleet()
        try:
            pool = fleet.acquire(1)
            fleet.invalidate(1)
            assert fleet.acquire(1) is not pool
            assert fleet.cold_starts == 2
        finally:
            fleet.shutdown()

    def test_global_fleet_is_a_singleton(self):
        assert get_fleet() is get_fleet()
        shutdown_fleet()
        shutdown_fleet()  # idempotent


# ----------------------------------------------- identity across all paths


class TestFleetIdentity:
    def test_serial_vs_fleet_fork_vs_warm_reuse(self):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        reference = serial.result_fingerprints()

        shutdown_fleet()
        cold = fresh_runner()
        sweep(cold)
        assert cold.sweep_paths.get("parallel[fleet:fork]") == 1
        assert cold.fleet_stats.get("cold_starts") == 1
        assert cold.result_fingerprints() == reference

        warm = fresh_runner()
        sweep(warm)
        assert warm.fleet_stats.get("warm_acquires") == 1
        assert not warm.fleet_stats.get("cold_starts")
        assert warm.result_fingerprints() == reference
        assert "[fleet:" in warm.throughput_summary()

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_fleet_spawn_identical_to_serial(self):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        spawned = fresh_runner()
        sweep(spawned, mp_context="spawn")
        assert spawned.sweep_paths.get("parallel[fleet:spawn]") == 1
        assert spawned.result_fingerprints() == serial.result_fingerprints()

    def test_fleet_keyword_is_ignored(self):
        # Runner(fleet=False) is still accepted; the fleet is the only pool.
        runner = fresh_runner(fleet=False)
        sweep(runner)
        assert runner.sweep_paths == {
            f"parallel[fleet:{multiprocessing.get_start_method()}]": 1
        }

    def test_explicit_chunksize_is_identity_neutral(self, monkeypatch):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        # A chunk size adaptive_chunksize would not pick for this grid.
        monkeypatch.setattr(base_mod, "adaptive_chunksize", lambda n, w: 3)
        chunked = fresh_runner()
        sweep(chunked)
        assert chunked.result_fingerprints() == serial.result_fingerprints()


# ------------------------------------------------ pooled results, parent side


class TestPooledResults:
    def test_pooled_with_and_without_disk_cache_match_serial(self, tmp_path):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        reference = serial.result_fingerprints()

        bare = fresh_runner()
        sweep(bare)
        assert bare.result_fingerprints() == reference

        cached = fresh_runner(cache=str(tmp_path / "cache"))
        sweep(cached)
        assert any(k.startswith("parallel") for k in cached.sweep_paths)
        assert cached.result_fingerprints() == reference
        assert cached.sims_run == len(GRID)

    def test_parent_persists_pooled_misses(self, tmp_path):
        puts = []

        class CountingCache(DiskResultCache):
            def put(self, key, result):
                puts.append(key)
                super().put(key, result)

        cache = CountingCache(tmp_path / "cache")
        runner = fresh_runner(cache=cache)
        sweep(runner)
        assert any(k.startswith("parallel") for k in runner.sweep_paths)
        # The parent writes every pooled miss itself, exactly as it
        # does a serial one.
        assert len(puts) == len(GRID)
        assert len(cache) == len(GRID)
        for point in runner.resolve_points(GRID):
            assert cache.get(sim_cache_key(*point)) is not None

    def test_pooled_results_carry_observability(self, tmp_path):
        runner = fresh_runner(cache=str(tmp_path / "cache"))
        results = sweep(runner)
        # wall_time_s/events_per_s are excluded from the disk payload;
        # whole pooled results still carry them to the runner totals.
        assert all(r.wall_time_s > 0 for r in results)
        assert all(r.events_per_s > 0 for r in results)
        assert runner.sim_wall_s > 0
        assert runner.sim_events > 0


def _die(point):
    """Fleet worker stand-in that kills its process mid-sweep."""
    os._exit(1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_worker_death_drops_the_pool_and_the_next_sweep_recovers(
    monkeypatch,
):
    serial = fresh_runner()
    serial.run_many(GRID, jobs=1)

    shutdown_fleet()
    monkeypatch.setattr(base_mod, "_fleet_run", _die)
    doomed = fresh_runner()
    with pytest.raises(BrokenProcessPool):
        sweep(doomed, mp_context="fork")
    assert get_fleet().stats()["live_pools"] == 0
    assert doomed.sims_run == 0

    monkeypatch.undo()
    recovered = fresh_runner()
    sweep(recovered, mp_context="fork")
    assert recovered.fleet_stats.get("cold_starts") == 1
    assert recovered.result_fingerprints() == serial.result_fingerprints()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_idle_worker_death_cold_starts_a_fresh_pool():
    serial = fresh_runner()
    serial.run_many(GRID, jobs=1)

    shutdown_fleet()
    fleet = get_fleet()
    pool = fleet.acquire(2, mp_context="fork")
    workers = list(pool._processes.values())
    victim = workers[0]
    os.kill(victim.pid, signal.SIGKILL)
    # Poll rather than join(): the pool's manager thread reaps the victim
    # too, and a join that loses that waitpid race returns with the
    # victim still reported alive.
    deadline = time.monotonic() + 30
    while victim.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not victim.is_alive()

    # The warm pool lost a worker between sweeps; the next sweep must
    # not be handed it.
    survivor = fresh_runner()
    sweep(survivor, mp_context="fork")
    assert fleet.cold_starts == 2
    assert survivor.fleet_stats.get("cold_starts") == 1
    assert survivor.result_fingerprints() == serial.result_fingerprints()
    # The dropped pool's other worker is gone too, so nothing is left for
    # the executor to wait on at interpreter exit.
    assert all(wait([w.sentinel], timeout=30) for w in workers)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_worker_death_is_seen_before_the_executor_notices():
    shutdown_fleet()
    fleet = get_fleet()
    pool = fleet.acquire(2, mp_context="fork")
    workers = list(pool._processes.values())
    victim = workers[0]
    # Pin the instant after a worker dies.  The executor's manager thread
    # is held where it would mark the pool broken, and the victim is
    # reaped here, as the manager's own join can: is_alive() then keeps
    # reporting it running although its sentinel is readable.
    manager = pool._executor_manager_thread
    terminate_broken = manager.terminate_broken
    release = threading.Event()

    def held(cause):
        release.wait(30)
        terminate_broken(cause)

    manager.terminate_broken = held
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=30)
    os.waitpid(victim.pid, 0)
    try:
        assert fleet.acquire(2, mp_context="fork") is not pool
        assert fleet.cold_starts == 2
        assert all(wait([w.sentinel], timeout=30) for w in workers)
    finally:
        # Never join the dropped pool: a survivor blocked on the call
        # queue lock the victim held would hang shutdown(wait=True).
        release.set()
        for w in workers[1:]:
            w.terminate()
        fleet.invalidate()
