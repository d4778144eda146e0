"""Tests for the parallel sweep engine (Runner.run_many) and the layered
result cache: determinism vs serial cold runs, warm-cache replay, and the
runner-level cache accounting."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments.base import BASELINE, PROPOSED_DESIGNS, Runner
from repro.experiments.registry import run_experiment
from repro.sim.config import SimConfig

SCALE = 0.05
BOOST = PROPOSED_DESIGNS[-1]


def fresh_runner(**kwargs) -> Runner:
    kwargs.setdefault("cache", False)
    return Runner(SimConfig(scale=SCALE), **kwargs)


class TestRunMany:
    GRID = [("C-BLK", BASELINE), ("C-BLK", BOOST), ("T-AlexNet", BASELINE)]

    def test_results_in_submission_order(self):
        runner = fresh_runner()
        results = runner.run_many(self.GRID)
        assert [r.app for r in results] == ["C-BLK", "C-BLK", "T-AlexNet"]
        assert results[0].design == BASELINE.label
        assert results[1].design == BOOST.label

    def test_matches_run_exactly(self):
        many = fresh_runner()
        r_many = many.run_many(self.GRID)
        single = fresh_runner()
        r_single = [single.run(app, spec) for app, spec in self.GRID]
        assert [a.fingerprint() for a in r_many] == [b.fingerprint() for b in r_single]
        assert many.sims_run == single.sims_run == 3

    def test_duplicate_points_collapse(self):
        runner = fresh_runner()
        results = runner.run_many([("C-BLK", BASELINE)] * 4)
        assert runner.sims_run == 1
        assert all(r is results[0] for r in results)

    def test_kwargs_points(self):
        runner = fresh_runner()
        plain, sched = runner.run_many([
            ("C-BLK", BASELINE),
            ("C-BLK", BASELINE, {"scheduler": "distributed"}),
        ])
        assert runner.sims_run == 2
        # Same point via run() with the same kwargs is already memoized.
        assert runner.run("C-BLK", BASELINE, scheduler="distributed") is sched
        assert runner.run("C-BLK", BASELINE) is plain

    def test_bad_point_shape_raises(self):
        runner = fresh_runner()
        with pytest.raises(ValueError, match="sweep point"):
            runner.run_many([("C-BLK",)])

    @pytest.mark.parametrize("point, error, match", [
        pytest.param(("C-BLK",), ValueError, "sweep point", id="1-tuple"),
        pytest.param(("C-BLK", BASELINE, {"overrides": {"not_a_field": 1}}),
                     TypeError, "not_a_field", id="unknown-override"),
        pytest.param(("C-BLK", BASELINE, {"schedular": "rr"}),
                     TypeError, "schedular", id="unknown-run-kwarg"),
    ])
    def test_bad_point_raises_before_simulating(self, point, error, match):
        # The whole grid resolves before anything simulates, so a bad
        # point after a good one still runs nothing.
        runner = fresh_runner()
        with pytest.raises(error, match=match):
            runner.run_many([("C-BLK", BASELINE), point])
        assert runner.sims_run == 0

    def test_parallel_identical_to_serial(self):
        serial = fresh_runner()
        parallel = fresh_runner()
        r_serial = serial.run_many(self.GRID, jobs=1)
        # Any grid with two or more misses takes the pool when jobs > 1,
        # and the taken path is recorded for observability.
        r_parallel = parallel.run_many(self.GRID, jobs=2)
        assert parallel.sims_run == serial.sims_run == 3
        [(path, count)] = parallel.sweep_paths.items()
        assert path.startswith("parallel[fleet:") and count == 1
        assert f"{path} x1" in parallel.throughput_summary()
        assert [a.fingerprint() for a in r_serial] == \
               [b.fingerprint() for b in r_parallel]

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_identical_to_serial(self):
        serial = fresh_runner()
        spawned = fresh_runner()
        r_serial = serial.run_many(self.GRID, jobs=1)
        r_spawn = spawned.run_many(self.GRID, jobs=2, mp_context="spawn")
        assert spawned.sweep_paths.get("parallel[fleet:spawn]") == 1
        assert [a.fingerprint() for a in r_serial] == \
               [b.fingerprint() for b in r_spawn]

    def test_small_grid_falls_back_to_serial(self):
        # A grid that leaves fewer than two distinct misses skips the
        # pool even at jobs > 1: cached points never reach it and
        # duplicate points collapse to one simulation.
        runner = fresh_runner()
        runner.run("C-BLK", BOOST)
        runner.run("T-AlexNet", BASELINE)
        results = runner.run_many(
            self.GRID + [("C-BLK", BASELINE)], jobs=2)
        assert runner.sims_run == 3
        assert runner.sweep_paths == {"serial": 1}
        assert [r.app for r in results] == \
               ["C-BLK", "C-BLK", "T-AlexNet", "C-BLK"]
        assert results[0] is results[3]
        assert "serial x1" in runner.throughput_summary()

    def test_single_miss_path_is_plain_serial(self):
        runner = fresh_runner()
        runner.run_many([("C-BLK", BASELINE)], jobs=4)
        assert runner.sweep_paths == {"serial": 1}


class TestDiskCacheIntegration:
    def test_run_populates_and_reads_disk(self, tmp_path):
        first = fresh_runner(cache=str(tmp_path))
        a = first.run("C-BLK", BASELINE)
        assert first.sims_run == 1
        # A *fresh* runner (empty memory layer) is served from disk.
        second = fresh_runner(cache=str(tmp_path))
        b = second.run("C-BLK", BASELINE)
        assert second.sims_run == 0
        assert b.fingerprint() == a.fingerprint()

    def test_warm_cache_rerun_runs_zero_sims(self, tmp_path):
        grid = [(app, spec) for app in ("C-BLK", "T-AlexNet")
                for spec in (BASELINE, BOOST)]
        cold = fresh_runner(cache=str(tmp_path))
        r_cold = cold.run_many(grid, jobs=2)
        assert cold.sims_run == len(grid)
        warm = fresh_runner(cache=str(tmp_path))
        r_warm = warm.run_many(grid, jobs=2)
        assert warm.sims_run == 0
        assert warm.disk_cache is not None and warm.disk_cache.hits == len(grid)
        assert [a.fingerprint() for a in r_cold] == [b.fingerprint() for b in r_warm]

    def test_run_many_derives_each_cache_key_once(self, tmp_path, monkeypatch):
        # The validate_grid pre-flight key is reused for the disk read and
        # the disk write, so a cold and a warm sweep each derive exactly
        # one sim_cache_key per distinct point.
        import repro.experiments.base as base_mod
        import repro.sim.store as store_mod

        calls = []
        real = store_mod.sim_cache_key

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(store_mod, "sim_cache_key", counting)
        monkeypatch.setattr(base_mod, "sim_cache_key", counting)
        grid = [("C-BLK", BASELINE), ("C-BLK", BOOST), ("T-AlexNet", BASELINE)]
        cold = fresh_runner(cache=str(tmp_path))
        cold.run_many(grid, jobs=1)
        assert cold.sims_run == len(grid)
        assert len(calls) == len(grid)
        calls.clear()
        warm = fresh_runner(cache=str(tmp_path))
        warm.run_many(grid, jobs=1)
        assert warm.sims_run == 0 and warm.disk_cache.hits == len(grid)
        assert len(calls) == len(grid)

    def test_failed_cache_write_keeps_every_result(self, tmp_path, monkeypatch):
        # A failed atomic write (os.replace raising ENOSPC) loses the
        # entry, never the sweep: every result comes back with its serial
        # fingerprint, each failed key warns, and no entry or temp file
        # is left behind.
        import errno
        import os

        from repro.sim.validation import validate_grid

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        grid = [("C-NN", BASELINE), ("C-NN", BOOST)]
        serial = [r.fingerprint() for r in fresh_runner().run_many(grid, jobs=1)]
        runner = fresh_runner(cache=str(tmp_path))
        keys = validate_grid(runner.resolve_points(grid))
        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.warns(RuntimeWarning) as record:
            results = runner.run_many(grid, jobs=1)
        monkeypatch.undo()
        assert [r.fingerprint() for r in results] == serial
        assert runner.sims_run == len(grid)
        failed = [str(w.message) for w in record
                  if "result cache write failed" in str(w.message)]
        assert len(failed) == len(grid)
        for key, message in zip(keys, failed):
            assert key in message and "No space left" in message
        assert len(runner.disk_cache) == 0
        leftovers = [name for _, _, names in os.walk(tmp_path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_cache_false_disables_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert Runner(SimConfig(scale=SCALE)).disk_cache is not None
        assert Runner(SimConfig(scale=SCALE), cache=False).disk_cache is None
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert Runner(SimConfig(scale=SCALE)).disk_cache is None


class TestRealExperimentGrid:
    """The acceptance anchor: a real experiment grid run three ways —
    serial cold, parallel cold, warm cache — is fingerprint-identical,
    and the warm replay executes zero new simulations."""

    EXPERIMENT = "fig08"

    def test_parallel_and_cache_match_serial_cold(self, tmp_path):
        serial = fresh_runner()
        report_serial = run_experiment(self.EXPERIMENT, serial)
        assert serial.sims_run > 0

        parallel = fresh_runner(cache=str(tmp_path), jobs=2)
        report_parallel = run_experiment(self.EXPERIMENT, parallel)
        assert parallel.sims_run == serial.sims_run
        assert parallel.result_fingerprints() == serial.result_fingerprints()

        warm = fresh_runner(cache=str(tmp_path), jobs=2)
        report_warm = run_experiment(self.EXPERIMENT, warm)
        assert warm.sims_run == 0
        assert warm.result_fingerprints() == serial.result_fingerprints()

        assert report_parallel.summary == report_serial.summary
        assert report_warm.summary == report_serial.summary
