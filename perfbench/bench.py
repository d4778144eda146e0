"""Workloads, timed passes and correctness checks behind ``run.py``.

Every workload drives the user entry point, ``Runner.run_many(jobs=1)``,
inside this one process; nothing here starts a process pool (see
README.md for why).  A run is:

1. set-up, repeated :data:`SETUP_REPEATS` times: build the grid, then one
   untimed pass.  On the grid workloads that pass fills a result cache,
   which ``grid-warm`` then serves every timed pass from;
2. timed passes until ``seconds`` have elapsed (at least
   :data:`MIN_PASSES`), each after ``gc.collect()`` and each followed,
   outside the timed region, by a fingerprint check of every point.

With tracing on, every second pass runs under the span recorder; the
untraced passes in between give the tracing-overhead baseline.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.base import BASELINE, PROPOSED_DESIGNS, Runner
from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.sim.store import DiskResultCache, sim_cache_key
from repro.workloads.suite import APP_NAMES, get_app

from spans import Recorder, point_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 3
MIN_PASSES = 3

#: The app set A: replication-heavy DNNs (T-AlexNet, T-ResNet), partition
#: camping (P-2MM), a footprint close to total L1 capacity (S-Reduction)
#: and 30% stores (C-SP).
APPS = ("T-AlexNet", "T-ResNet", "P-2MM", "S-Reduction", "C-SP")
DESIGNS = {spec.label: spec for spec in (BASELINE, *PROPOSED_DESIGNS)}


@dataclass(frozen=True)
class Workload:
    name: str
    apps: Tuple[str, ...]
    designs: Tuple[str, ...]
    scale: float
    #: "none": no disk cache; "cold": a fresh cache on every pass;
    #: "warm": every pass is served from the cache filled in set-up.
    cache: str = "none"
    #: run_many calls per pass, each through a fresh Runner.
    replays: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Sh40 is the only design the fused dispatch twins cover, so the
    # drain dominates here.
    Workload("fused-sh40", APPS, ("Sh40",), 0.1),
    # The same apps on the scalar and generic-NumPy dispatch tiers, with
    # clustered NoCs; every point regenerates its app's streams.
    Workload("design-mix", APPS,
             ("Baseline", "Pr40", "Sh40+C10", "Sh40+C10+Boost"), 0.03),
    # The 140-point paper grid at the smallest scale: per-point fixed
    # costs (wiring, generation) and the store's write path.
    Workload("grid-cold", tuple(APP_NAMES), tuple(DESIGNS), 0.005,
             cache="cold"),
    # The same grid re-run from a warm cache, as a repeated `repro
    # figures` does: key derivation, store reads and the runner.
    Workload("grid-warm", tuple(APP_NAMES), tuple(DESIGNS), 0.005,
             cache="warm", replays=10),
)}

END_TO_END_UNITS = {
    "sim_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workloads.generate_calls": "count",
    "workloads.generate_s": "s",
    "workloads.generate_ms_p50": "ms",
    "workloads.generate_samples": "count",
    "system.wire_s": "s",
    "system.wire_ms_p50": "ms",
    "system.wire_samples": "count",
    "system.collect_s": "s",
    "engine.run_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.events_per_kinstr": "count",
    "store.key_calls_per_point": "count",
    "store.key_s": "s",
    "store.key_us_p50": "us",
    "store.key_us_p99": "us",
    "store.key_tail_pct": "%",
    "store.key_samples": "count",
    "store.get_s": "s",
    "store.get_us_p50": "us",
    "store.get_us_p99": "us",
    "store.get_tail_pct": "%",
    "store.get_samples": "count",
    "store.get_hits": "count",
    "store.get_misses": "count",
    "store.put_s": "s",
    "store.put_bytes": "bytes",
    "validation.validate_grid_s": "s",
    "runner.self_s": "s",
    "runner.sims_run": "count",
    "runner.served_frac": "fraction",
    "gpu.cycles": "cycles",
    "gpu.ipc": "instr/cycle",
    "cache.l1_miss_rate": "fraction",
    "cache.replication_ratio": "fraction",
    "noc.flit_hops": "count",
    "mem.dram_accesses": "count",
    "trace.overhead_frac": "fraction",
}


class Bench:
    """One workload at one trace variant: its grid and its passes."""

    def __init__(self, wl: Workload, variant: int, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.cfg = SimConfig(scale=wl.scale, sanitize=False, watchdog=False)
        self.points = [
            (get_app(app).variant(variant), DESIGNS[design])
            for app in wl.apps for design in wl.designs
        ]
        self.pids = [
            point_id(app, design, wl.scale)
            for app in wl.apps for design in wl.designs
        ]

    def _runner(self, cache) -> Runner:
        return Runner(config=self.cfg, jobs=1, cache=cache, fleet=False)

    def _cache(self, name: str):
        if self.wl.cache == "none":
            return False
        return DiskResultCache(self.workdir / name)

    def fill(self) -> List[SimResult]:
        """The untimed set-up pass; on the grid workloads it fills the
        cache ``grid-warm`` is served from."""
        return self._runner(self._cache("fill")).run_many(self.points, jobs=1)

    def run_pass(self) -> Tuple[List[SimResult], int]:
        """One timed pass: results of every replay, and simulations run."""
        results: List[SimResult] = []
        sims = 0
        for _ in range(self.wl.replays):
            runner = self._runner(
                self._cache("fill" if self.wl.cache == "warm" else "pass")
            )
            results += runner.run_many(self.points, jobs=1)
            sims += runner.sims_run
        return results, sims

    def reset(self) -> None:
        """Drop the previous pass's cold cache (untimed)."""
        shutil.rmtree(self.workdir / "pass", ignore_errors=True)

    def key_points(self) -> Dict[str, str]:
        return {
            sim_cache_key(profile, spec, self.cfg): pid
            for (profile, spec), pid in zip(self.points, self.pids)
        }


class Checker:
    """Counts points whose fingerprint is not the expected one.

    With a reference table (seed 0) every point must match its entry.
    Without one (other seeds) the first fingerprint seen for a point
    becomes its reference, so every later one — pass to pass, and warm
    to cold — must equal it.
    """

    def __init__(self, reference: Optional[Dict[str, str]]):
        self.adopt = reference is None
        self.expected: Dict[str, str] = dict(reference or {})
        self.attempted = 0
        self.failed = 0

    def check(self, pids: Sequence[str], results: Sequence[SimResult]) -> None:
        for pid, result in zip(pids, results):
            self.attempted += 1
            got = result.fingerprint_sha256()
            if self.adopt:
                want = self.expected.setdefault(pid, got)
            else:
                want = self.expected.get(pid)
            if got != want:
                self.failed += 1
                print(f"perfbench: fingerprint mismatch at {pid}: "
                      f"{got[:12]} != {str(want)[:12]}", file=sys.stderr)

    def fail(self, points: int, attempted: int, why: str) -> None:
        self.attempted += attempted
        self.failed += points
        print(f"perfbench: {points} failed point(s): {why}", file=sys.stderr)


def load_reference() -> Dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["fingerprints"]


@dataclass
class Pass:
    seconds: float
    instructions: int
    sims: int
    points: int
    traced: bool
    spans: Tuple[int, int] = (0, 0)
    grid: List[SimResult] = field(default_factory=list)

    @property
    def kips(self) -> float:
        return self.instructions / 1000.0 / self.seconds


def set_up(wl: Workload, variant: int, workdir: Path,
           checker: Checker) -> Tuple[Bench, List[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        t0 = perf_counter()
        bench = Bench(wl, variant, workdir)
        results = bench.fill()
        times.append(perf_counter() - t0)
        checker.check(bench.pids, results)
    return bench, times


def run_passes(bench: Bench, checker: Checker, seconds: float,
               recorder: Optional[Recorder]) -> List[Pass]:
    """Timed passes until ``seconds`` have elapsed; with a recorder,
    every second pass is traced."""
    passes: List[Pass] = []
    n = len(bench.points)
    floor = MIN_PASSES + (MIN_PASSES % 2 if recorder is not None else 0)
    deadline = perf_counter() + seconds
    attempt = 0
    while attempt < floor or perf_counter() < deadline:
        traced = recorder is not None and attempt % 2 == 1
        attempt += 1
        bench.reset()
        gc.collect()
        lo = len(recorder.spans) if recorder is not None else 0
        if traced:
            recorder.install()
        try:
            t0 = perf_counter()
            results, sims = bench.run_pass()
            dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            checker.fail(n * bench.wl.replays, n * bench.wl.replays,
                         "the pass raised")
            continue
        finally:
            if traced:
                recorder.uninstall()
        checker.check(bench.pids * bench.wl.replays, results)
        if bench.wl.cache == "warm" and sims:
            checker.fail(sims, 0, "simulated on a warm cache")
        passes.append(Pass(
            seconds=dt,
            instructions=sum(r.instructions for r in results),
            sims=sims,
            points=len(results),
            traced=traced,
            spans=(lo, len(recorder.spans) if recorder is not None else 0),
            grid=results[:n],
        ))
    return passes


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def tail_pct(n: int) -> int:
    """Highest whole percentile, at most 99, with at least ten of ``n``
    samples beyond it (50 when there are too few samples for that)."""
    if n < 20:
        return 50
    return min(99, 100 * (n - 10) // n)


def modelled(grid: Sequence[SimResult]) -> Dict[str, float]:
    """Simulated-hardware totals over one copy of the workload's grid."""
    cycles = sum(r.cycles for r in grid)
    accesses = sum(r.l1.accesses for r in grid)
    misses = sum(r.l1.misses for r in grid)
    return {
        "gpu.cycles": cycles,
        "gpu.ipc": sum(r.instructions for r in grid) / cycles,
        "cache.l1_miss_rate": misses / accesses,
        "cache.replication_ratio":
            sum(r.l1.replicated_misses for r in grid) / misses,
        "noc.flit_hops": sum(r.total_flit_hops for r in grid),
        "mem.dram_accesses": sum(r.dram_accesses for r in grid),
    }


def end_to_end(passes: Sequence[Pass], setup_times: Sequence[float],
               import_s: float) -> Dict[str, float]:
    return {
        "sim_kips": statistics.median(p.kips for p in passes),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: Sequence[Pass], recorder: Recorder) -> Dict[str, float]:
    """Per-pass layer metrics (median over the traced passes), per-call
    percentiles pooled over them, and the tracing overhead."""
    spans = recorder.spans
    own = recorder.self_times()
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_call: Dict[str, List[float]] = defaultdict(list)
    rows = []
    for p in traced:
        busy: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        value: Dict[str, float] = defaultdict(float)
        for i in range(*p.spans):
            s = spans[i]
            busy[s.name] += s.duration
            self_s[s.name] += own[i]
            calls[s.name] += 1
            value[s.name] += s.value or 0.0
            per_call[s.name].append(own[i])
        events = value["engine.run"]
        run_s = busy["engine.run"]
        rows.append({
            "workloads.generate_calls": calls["workloads.generate"],
            "workloads.generate_s": busy["workloads.generate"],
            "system.wire_s": self_s["system.init"],
            "system.collect_s": self_s["system.run"],
            "engine.run_s": run_s,
            "engine.events": int(events),
            "engine.events_per_s": events / run_s if run_s else 0.0,
            "engine.events_per_kinstr": events / (p.instructions / 1000.0),
            "store.key_calls_per_point": calls["store.key"] / p.points,
            "store.key_s": busy["store.key"],
            "store.get_s": busy["store.get"],
            "store.get_hits": int(value["store.get"]),
            "store.get_misses": calls["store.get"] - int(value["store.get"]),
            "store.put_s": busy["store.put"],
            "store.put_bytes": int(value["store.put"]),
            "validation.validate_grid_s": busy["validation.validate_grid"],
            "runner.self_s": self_s["runner.run_many"],
            "runner.sims_run": p.sims,
            "runner.served_frac": 1.0 - p.sims / p.points,
        })
    out = {name: statistics.median(row[name] for row in rows)
           for name in rows[0]}
    for prefix, span, scale, unit, tail in (
        ("workloads.generate", "workloads.generate", 1e3, "ms", False),
        ("system.wire", "system.init", 1e3, "ms", False),
        ("store.key", "store.key", 1e6, "us", True),
        ("store.get", "store.get", 1e6, "us", True),
    ):
        samples = [t * scale for t in per_call[span]]
        out[f"{prefix}_{unit}_p50"] = percentile(samples, 50)
        out[f"{prefix}_samples"] = len(samples)
        if tail:
            pct = tail_pct(len(samples))
            out[f"{prefix}_{unit}_p99"] = percentile(samples, pct)
            out[f"{prefix}_tail_pct"] = pct
    out.update(modelled(traced[-1].grid))
    out["trace.overhead_frac"] = 1.0 - (
        statistics.median(p.kips for p in traced)
        / statistics.median(p.kips for p in plain)
    )
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's git metadata, when it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(passes: Sequence[Pass], scrubbed: Sequence[str]) -> dict:
    times = [p.seconds for p in passes]
    q1, med, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                   else times * 3)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "scrubbed_env": list(scrubbed),
        "passes": len(times),
        "pass_s_min": min(times),
        "pass_s_median": med,
        "pass_s_max": max(times),
        "pass_spread": (q3 - q1) / med,
        "pass_kips": [p.kips for p in passes],
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        scrubbed: Sequence[str], import_s: float) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    variant = seed % 2**31
    checker = Checker(load_reference() if variant == 0 else None)
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        bench, setup_times = set_up(wl, variant, workdir, checker)
        recorder = Recorder(bench.key_points()) if trace else None
        passes = run_passes(bench, checker, seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not passes or (trace and not any(p.traced for p in passes)):
        raise RuntimeError("no timed pass completed")
    if trace:
        metrics, units = per_layer(passes, recorder), PER_LAYER_UNITS
        recorder.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = end_to_end(passes, setup_times, import_s)
        units = END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    host = host_record(passes, scrubbed)
    with open(OUT / f"host-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"host": host, "result": result}, fh, indent=1)
    _summary(wl, seed, passes, result, host)
    return result


def _summary(wl: Workload, seed: int, passes: Sequence[Pass], result: dict,
             host: dict) -> None:
    err = sys.stderr
    print(f"perfbench {wl.name} seed {seed}: {len(passes)} passes, "
          f"failed {result['failed']} of {result['attempted']} points",
          file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}", file=err)
    print(f"  host: nproc {host['nproc']}, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"commit {host['commit'][:12]}; pass {host['pass_s_min']:.3f}-"
          f"{host['pass_s_max']:.3f} s, spread {host['pass_spread']:.1%}",
          file=err)
