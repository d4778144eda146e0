"""Self-tests of the benchmark, and regeneration of its reference table.

    python3 perfbench/selftest.py                    # run the self-tests
    python3 perfbench/selftest.py --write-reference  # rewrite reference.json

The self-tests check that

* the seed-0 reference table agrees with every golden fingerprint in
  ``tests/test_simturbo.py`` for the grid points they share;
* one ``fused-sh40`` pass checked against the table has no failed point,
  and the same pass against a copy with one hash corrupted has exactly
  one;
* ``BENCHMARK.json`` declares exactly the workloads, metric names and
  units the benchmark prints.

Regenerate the table only when a change is meant to alter the
simulation's results; it runs one seed-0 pass of every grid.
"""

from __future__ import annotations

import argparse
import ast
import json
import shutil
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def goldens() -> dict:
    """``GOLDEN`` from tests/test_simturbo.py, keyed by point id."""
    from spans import point_id

    tree = ast.parse((ROOT / "tests" / "test_simturbo.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return {point_id(app, design, scale): sha
                    for (app, design, scale), sha in table.items()}
    raise AssertionError("no GOLDEN table in tests/test_simturbo.py")


def write_reference() -> None:
    import bench

    table = {}
    for wl in bench.WORKLOADS.values():
        workdir = bench.OUT / f"reference-{wl.name}"
        try:
            b = bench.Bench(wl, 0, workdir)
            for pid, result in zip(b.pids, b.fill()):
                table[pid] = result.fingerprint_sha256()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "about": "fingerprint_sha256() of every benchmark grid point at "
                 "seed 0 (trace variant 0), keyed app/design@scale; "
                 "written by perfbench/selftest.py --write-reference",
        "fingerprints": dict(sorted(table.items())),
    }
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(table)} fingerprints to {bench.REFERENCE}")


def check_goldens() -> None:
    import bench

    table = bench.load_reference()
    shared = {pid: sha for pid, sha in goldens().items() if pid in table}
    assert shared, "no golden point is on a benchmark grid"
    for pid, sha in shared.items():
        assert table[pid] == sha, f"reference disagrees with golden {pid}"
    print(f"ok: reference agrees with {len(shared)} golden point(s): "
          + ", ".join(sorted(shared)))


def check_corruption() -> None:
    import bench

    wl = bench.WORKLOADS["fused-sh40"]
    b = bench.Bench(wl, 0, bench.OUT / "selftest")
    results = b.fill()
    table = bench.load_reference()
    clean = bench.Checker(table)
    clean.check(b.pids, results)
    assert (clean.attempted, clean.failed) == (len(b.pids), 0), vars(clean)
    corrupt = dict(table)
    victim = b.pids[len(b.pids) // 2]
    corrupt[victim] = corrupt[victim][::-1]
    bad = bench.Checker(corrupt)
    bad.check(b.pids, results)
    assert (bad.attempted, bad.failed) == (len(b.pids), 1), vars(bad)
    print(f"ok: clean table 0 of {clean.attempted} failed; "
          f"one corrupted hash ({victim}) 1 of {bad.attempted} failed")


def check_declaration() -> None:
    import bench

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for section, units in (("end_to_end", bench.END_TO_END_UNITS),
                           ("per_layer", bench.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == units, f"{section} differs from the benchmark"
    print("ok: BENCHMARK.json matches the workloads and metrics printed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    run.prepare()
    if args.write_reference:
        write_reference()
    check_goldens()
    check_corruption()
    check_declaration()
    return 0


if __name__ == "__main__":
    sys.exit(main())
