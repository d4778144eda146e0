"""Benchmark entry point: one workload, one JSON result line.

    python3 perfbench/run.py --workload fused-sh40 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Runs the simulator from this checkout's ``src/`` and nothing else: every
``REPRO_*`` environment knob is removed first, and a checkout without the
simulator sources exits non-zero without printing a result.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary and the
host record go to standard error.  ``--workload all`` runs every workload
in its own process, one after another, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Set-up time starts here, before the simulator and NumPy are imported.
_T0 = perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def prepare() -> list:
    """Scrub the ``REPRO_*`` knobs and import the simulator from this
    checkout; returns the scrubbed names."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    return scrubbed


def run_all(args: argparse.Namespace, names) -> int:
    rows = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
    for name, res in rows.items():
        print(f"{name}: failed {res['failed']} of {res['attempted']} points")
        for metric, m in res["metrics"].items():
            print(f"  {metric:30s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace variant of every app (0 is checked "
                             "against reference.json)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    scrubbed = prepare()
    import bench

    if args.workload == "all":
        return run_all(args, bench.WORKLOADS)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(bench.WORKLOADS)} or all")
    result = bench.run(bench.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace), scrubbed,
                       perf_counter() - _T0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
