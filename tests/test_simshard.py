"""SimShard: distribution-safety analysis (SD501–SD503, SD505) and its
serial/fork/spawn replay confirmer."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.core import Finding, Severity, rule_table
from repro.analysis.simshard import (
    SHARD_RULES,
    WORKER_SAFE_GLOBALS,
    confirm_shard,
    shard_source,
    run_shard,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: A minimal module skeleton with one pool boundary: fixtures splice a
#: worker body and a payload into it.
POOL = """
from concurrent.futures import ProcessPoolExecutor
"""


def _analyze(src, **kw):
    # "<string>" counts as sweep-layer, so fixtures are checked by default.
    return shard_source(textwrap.dedent(src), **kw)


# ------------------------------------------ SD501 (non-picklable payloads)


def test_lambda_in_run_many_points_is_flagged():
    findings = _analyze(
        """
        def build(runner, specs):
            return runner.run_many([(lambda: 1, spec) for spec in specs])
        """
    )
    assert [f.rule_id for f in findings] == ["SD501"]
    assert findings[0].severity is Severity.ERROR
    assert "lambda" in findings[0].message


def test_open_file_handle_into_pool_map_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(items):
            fh = open("log.txt")
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, items, fh))
        """
    )
    assert [f.rule_id for f in findings] == ["SD501"]
    assert "file handle" in findings[0].message


def test_locally_defined_class_in_payload_is_flagged():
    findings = _analyze(
        """
        def build(runner, specs):
            class Probe:
                pass
            return runner.run_many([(Probe, spec) for spec in specs])
        """
    )
    assert [f.rule_id for f in findings] == ["SD501"]
    assert "Probe" in findings[0].message


def test_worker_returning_lambda_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def _work(p):
            return lambda: p

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD501"]
    assert "_work" in findings[0].message


def test_frozen_tuple_payload_is_fine():
    findings = _analyze(
        """
        def build(runner, apps, specs):
            return runner.run_many([(a, s) for a in apps for s in specs])
        """
    )
    assert findings == []


# ------------------------------------------- SD502 (mutable module globals)


def test_worker_mutating_module_global_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        RESULTS = []

        def _work(p):
            RESULTS.append(p)
            return p

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]
    assert findings[0].severity is Severity.ERROR
    assert "RESULTS" in findings[0].message


def test_worker_reading_mutable_global_warns():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        TABLE = {"a": 1}

        def _work(p):
            return TABLE[p]

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]
    assert findings[0].severity is Severity.WARNING
    assert "WORKER_SAFE_GLOBALS" in findings[0].message


def test_global_declaration_in_worker_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        COUNT = []

        def _work(p):
            global COUNT
            COUNT = [p]

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]


def test_transitively_reachable_global_use_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        SEEN = []

        def _record(p):
            SEEN.append(p)

        def _work(p):
            _record(p)
            return p

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]
    assert "_record" in findings[0].message


def test_declared_safe_global_read_is_allowed():
    name = next(iter(WORKER_SAFE_GLOBALS))
    findings = _analyze(
        f"""
        from concurrent.futures import ProcessPoolExecutor

        {name} = {{}}

        def _work(p):
            return {name}.get(p)

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert findings == []


def test_non_worker_global_use_is_out_of_scope():
    # Mutating a module global from *parent-side* code is SimPure/SimLint
    # territory, not a distribution hazard.
    findings = _analyze(
        """
        CACHE = {}

        def remember(k, v):
            CACHE[k] = v
        """
    )
    assert findings == []


def test_declared_memo_global_writes_are_allowed():
    # _STREAM_CACHE is in WORKER_MEMO_GLOBALS: a per-process memoization
    # cache whose hits are bit-identical to recomputation, so worker-side
    # writes are sound by declaration.
    from repro.analysis.simshard import WORKER_MEMO_GLOBALS

    assert "_STREAM_CACHE" in WORKER_MEMO_GLOBALS
    assert WORKER_MEMO_GLOBALS <= set(WORKER_SAFE_GLOBALS)
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        _STREAM_CACHE = {}

        def _work(p):
            if p not in _STREAM_CACHE:
                _STREAM_CACHE[p] = p * 2
            return _STREAM_CACHE[p]

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert findings == []


def test_undeclared_memo_like_global_is_still_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        _MY_CACHE = {}

        def _work(p):
            _MY_CACHE[p] = p * 2
            return _MY_CACHE[p]

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert "SD502" in {f.rule_id for f in findings}
    assert any(
        f.severity is Severity.ERROR and "_MY_CACHE" in f.message
        for f in findings
    )


def test_fleet_acquired_pool_is_a_boundary():
    # `pool = fleet.acquire(...)` must be recognized as a pool binding so
    # its .map() worker enters the reachability closure.
    findings = _analyze(
        """
        from repro.sim.fleet import get_fleet

        RESULTS = []

        def _work(p):
            RESULTS.append(p)
            return p

        def sweep(items):
            pool = get_fleet().acquire(4)
            return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]
    assert "RESULTS" in findings[0].message


def test_manifest_workers_seed_reachability():
    # A module that only *exports* its worker (the boundary call lives in
    # another module) declares it via SIMSHARD_WORKERS and is still
    # analyzed.
    findings = _analyze(
        """
        SIMSHARD_WORKERS = ("_work",)

        RESULTS = []

        def _work(p):
            RESULTS.append(p)
            return p
        """
    )
    assert [f.rule_id for f in findings] == ["SD502"]
    assert "RESULTS" in findings[0].message


def test_manifest_with_unknown_names_is_ignored():
    findings = _analyze(
        """
        SIMSHARD_WORKERS = ("_not_defined_here",)

        def helper(p):
            return p
        """
    )
    assert findings == []


# -------------------------------------------------- SD503 (fork-unsafety)


def test_lock_construction_in_worker_is_flagged():
    findings = _analyze(
        """
        import threading
        from concurrent.futures import ProcessPoolExecutor

        def _work(p):
            lock = threading.Lock()
            return p

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD503"]
    assert "threading.Lock" in findings[0].message


def test_nested_pool_in_worker_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def _work(p):
            with ProcessPoolExecutor() as inner:
                return list(inner.map(str, p))

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert "SD503" in [f.rule_id for f in findings]
    assert any("nested" in f.message for f in findings)


def test_module_rng_in_worker_warns():
    findings = _analyze(
        """
        import random
        from concurrent.futures import ProcessPoolExecutor

        def _work(p):
            return random.random()

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD503"]
    assert findings[0].severity is Severity.WARNING


def test_nested_def_worker_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(items):
            def work(p):
                return p
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD503"]
    assert "module scope" in findings[0].message


def test_bound_method_worker_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        class Sweeper:
            def work(self, p):
                return p

            def sweep(self, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(self.work, items))
        """
    )
    assert [f.rule_id for f in findings] == ["SD503"]
    assert "bound method" in findings[0].message


def test_module_level_worker_is_fine():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def _work(p):
            return p * 2

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_work, items))
        """
    )
    assert findings == []


# ----------------------------------------------- SD505 (merge ordering)


def test_as_completed_merge_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor, as_completed

        def sweep(items):
            out = []
            with ProcessPoolExecutor() as pool:
                futs = [pool.submit(work, i) for i in items]
                for fut in as_completed(futs):
                    out.append(fut.result())
            return out
        """
    )
    assert "SD505" in [f.rule_id for f in findings]
    assert any("as_completed" in f.message for f in findings)


def test_set_iteration_merge_is_flagged():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(items):
            out = []
            with ProcessPoolExecutor() as pool:
                res = set(pool.map(work, items))
            for r in res:
                out.append(r)
            return out
        """
    )
    assert [f.rule_id for f in findings] == ["SD505"]


def test_submission_order_merge_is_fine():
    findings = _analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, items))
        """
    )
    assert findings == []


# ------------------------------------------------------------- mechanics


def test_suppression_comment_silences_a_rule():
    findings = _analyze(
        """
        def build(runner, specs):
            return runner.run_many(
                [(lambda: 1, s) for s in specs])  # simshard: disable=SD501
        """
    )
    assert findings == []


def test_select_restricts_rules():
    src = """
    from concurrent.futures import ProcessPoolExecutor

    RESULTS = []

    def _work(p):
        RESULTS.append(p)
        return lambda: p

    def sweep(items):
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_work, items))
    """
    assert {f.rule_id for f in _analyze(src)} == {"SD501", "SD502"}
    assert {f.rule_id for f in _analyze(src, select=["SD502"])} == {"SD502"}


def test_syntax_error_is_reported_not_raised():
    findings = shard_source("def broken(:\n")
    assert len(findings) == 1
    assert findings[0].rule_id == "SD001"


def test_rule_table_lists_all_rules():
    ids = [rid for rid, _, _ in rule_table(SHARD_RULES)]
    assert ids == ["SD501", "SD502", "SD503", "SD505"]


def test_non_sweep_layer_paths_are_out_of_scope():
    findings = shard_source(
        "def f(runner):\n    return runner.run_many([(lambda: 1, s)])\n",
        path="somewhere/else/tool.py",
    )
    assert findings == []


def test_shipped_tree_is_clean_strict():
    findings = run_shard([str(SRC_ROOT)])
    assert findings == [], "\n".join(f.format() for f in findings)


# ------------------------------------------------------------- confirmer


class TestConfirmShard:
    @pytest.fixture(scope="class")
    def report(self):
        return confirm_shard(
            grid=[("C-BLK", "Baseline"), ("C-NN", "Sh40")], scale=0.05)

    def test_report_is_sound(self, report):
        assert report.ok, report.render()

    def test_probe_families_all_ran(self, report):
        counts = report.counts()
        assert counts["pre-flight"] == (1, 1)
        assert counts["pickle-roundtrip"] == (2, 2)
        assert counts["result-roundtrip"] == (2, 2)
        # One context-identity probe per available start method.
        kinds = counts["context-identity"]
        assert kinds[0] == kinds[1] >= 1
        # A warm re-acquire of the fleet must have been probed too.
        assert counts["fleet-reuse"] == (1, 1)

    def test_render_mentions_verdict(self, report):
        text = report.render()
        assert "overall: SOUND" in text
        assert "bit-identical" in text

    def test_findings_graded(self, report):
        exercised = Finding(
            "src/repro/experiments/base.py", 1, 0, "SD501",
            Severity.ERROR, "x")
        elsewhere = Finding(
            "src/repro/analysis/simshard.py", 1, 0, "SD501",
            Severity.ERROR, "x")
        assert report.verdict_for(exercised) == "BENIGN"
        assert report.verdict_for(elsewhere) == "UNOBSERVED"


# ------------------------------------------------------------------- CLI


class TestCli:
    def test_static_clean_exit(self, capsys):
        from repro.cli import main

        assert main(["shard", "--strict", str(SRC_ROOT)]) == 0
        assert capsys.readouterr().out == ""

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["shard", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SD501" in out and "SD505" in out
        assert "SD504" not in out and "SD506" not in out

    def test_unknown_select_rejected(self, capsys):
        from repro.cli import main

        assert main(["shard", "--select", "SD999", str(SRC_ROOT)]) == 2
        assert "SD999" in capsys.readouterr().err

    def test_bad_grid_entry_rejected(self, capsys):
        from repro.cli import main

        assert main(["shard", "--confirm", "--grid", "nope"]) == 2
        assert "APP/DESIGN" in capsys.readouterr().err

    def test_analyze_includes_simshard_row(self, capsys):
        from repro.cli import main

        assert main(["analyze", str(SRC_ROOT / "experiments")]) == 0
        out = capsys.readouterr().out
        assert "simshard" in out and "distribution safety" in out

    def test_analyze_json_has_schema_version_and_shard(self, capsys):
        from repro.cli import ANALYZE_SCHEMA_VERSION, main

        assert main(["analyze", "--json", str(SRC_ROOT / "experiments")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == ANALYZE_SCHEMA_VERSION
        assert "simshard" in {t["tool"] for t in doc["tools"]}
