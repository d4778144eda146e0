"""Sweep-engine wall-clock benches: serial vs fleet, cold vs warm.

Four runs over the same 24-point (application x design) grid — the
replication-sensitive set under the baseline and the final proposed
design, the core of Figures 8/14:

1. serial cold (``jobs=1``, no pool, no disk cache) — the
   pre-``run_many`` behaviour and the correctness reference,
2. fleet cold (fleet explicitly shut down first, fresh persistent
   cache) — misses fan out over a freshly spun-up warm fleet, and the
   parent writes each returned result to the cache,
3. fleet warm (fresh Runner, *fresh* cache, same live fleet) — every
   point simulates again, but on the already-warm workers: the bench
   isolates SimFleet's reuse win and the non-sim orchestration overhead,
4. warm cache (same cache as run 2, jobs=1) — every point served from
   disk with **zero** new simulations.

All four must be ``SimResult.fingerprint()``-identical.  Human-readable
wall-clock lines land in ``results/sweep.txt``; runs 1-3 are also
upserted into the machine-readable ``results/sweep.json`` (see
``harness.record_sweep_point``), which CI diffs against the committed
copy through ``check_perf_baseline.py``.  Speed is never asserted
in-process — on a single-core host the fleet cannot beat serial on
wall clock, and the thresholds belong in the CI gate.
"""

from __future__ import annotations

import hashlib
import os

from harness import bench_sweep, record_sweep_point

from repro.experiments.base import BASELINE, PROPOSED_DESIGNS, Runner, env_scale
from repro.sim.config import SimConfig
from repro.sim.fleet import shutdown_fleet
from repro.workloads.suite import REPLICATION_SENSITIVE

BOOST = PROPOSED_DESIGNS[-1]
GRID = [(name, spec) for name in REPLICATION_SENSITIVE for spec in (BASELINE, BOOST)]
# At least 2 so the process-pool path is exercised even on tiny hosts.
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))

#: Cross-test state: the serial reference fingerprints.
_STATE: dict = {}


def _fresh_runner(cache) -> Runner:
    return Runner(SimConfig(scale=env_scale()), cache=cache)


def _combined_hash(results) -> str:
    """One hash over the whole sweep: sha256 of the concatenated
    per-point fingerprint hashes, in grid order."""
    blob = "".join(r.fingerprint_sha256() for r in results)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _total_events(results) -> int:
    return sum(int(round(r.wall_time_s * r.events_per_s)) for r in results)


def _record(results_dir, label, results, elapsed, jobs, runner, **extra) -> None:
    record_sweep_point(
        results_dir,
        label=label,
        scale=env_scale(),
        n_points=len(GRID),
        jobs=jobs,
        events=_total_events(results),
        wall_s=elapsed,
        events_per_s=_total_events(results) / elapsed if elapsed > 0 else 0.0,
        fingerprint_sha256=_combined_hash(results),
        fleet_stats=runner.fleet_stats or None,
        **extra,
    )


def test_sweep_serial_cold(benchmark, results_dir):
    runner = _fresh_runner(cache=False)
    results, elapsed = bench_sweep(
        benchmark, runner, GRID, results_dir, "serial-cold", jobs=1
    )
    assert runner.sims_run == len(set(GRID))
    _STATE["serial_fp"] = runner.result_fingerprints()
    _record(results_dir, "serial-cold", results, elapsed, 1, runner)


def test_sweep_fleet_cold(benchmark, results_dir, sweep_cache_dir):
    shutdown_fleet()  # force a cold spin-up so the record is honest
    runner = _fresh_runner(cache=str(sweep_cache_dir))
    results, elapsed = bench_sweep(
        benchmark, runner, GRID, results_dir, "fleet-cold", jobs=PARALLEL_JOBS
    )
    assert runner.sims_run == len(set(GRID))
    assert runner.result_fingerprints() == _STATE["serial_fp"]
    assert runner.fleet_stats.get("cold_starts") == 1
    _record(results_dir, "fleet-cold", results, elapsed, PARALLEL_JOBS, runner)


def test_sweep_fleet_warm(benchmark, results_dir, tmp_path_factory):
    # Fresh runner AND fresh cache: every point simulates again, but on
    # the fleet the previous test left warm — no new pool spin-up.
    runner = _fresh_runner(cache=str(tmp_path_factory.mktemp("warm-cache")))
    results, elapsed = bench_sweep(
        benchmark, runner, GRID, results_dir, "fleet-warm", jobs=PARALLEL_JOBS
    )
    assert runner.sims_run == len(set(GRID))
    assert runner.result_fingerprints() == _STATE["serial_fp"]
    assert runner.fleet_stats.get("warm_acquires") == 1
    assert not runner.fleet_stats.get("cold_starts")
    overhead = max(0.0, elapsed - sum(r.wall_time_s for r in results))
    _record(
        results_dir, "fleet-warm", results, elapsed, PARALLEL_JOBS, runner,
        non_sim_overhead_s=overhead,
    )


def test_sweep_warm_cache(benchmark, results_dir, sweep_cache_dir):
    runner = _fresh_runner(cache=str(sweep_cache_dir))
    _, _ = bench_sweep(benchmark, runner, GRID, results_dir, "warm-cache", jobs=1)
    assert runner.sims_run == 0, "warm cache must serve every point from disk"
    assert runner.result_fingerprints() == _STATE["serial_fp"]
