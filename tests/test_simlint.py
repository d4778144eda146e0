"""Tests for the SimLint static analysis pass.

Every rule is exercised both ways: it must fire on a minimal bad snippet
and stay quiet on the idiomatic good version of the same code.
"""

import textwrap

import pytest

from repro.analysis.core import Finding, Severity, rule_table
from repro.analysis.simlint import RULES, lint_source, run_lint
from repro.cli import main


def lint(code, select=None):
    return lint_source(textwrap.dedent(code), "snippet.py", select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestSL101Nondeterminism:
    def test_wall_clock_fires(self):
        findings = lint(
            """
            import time
            def tick(engine):
                return time.time()
            """
        )
        assert rule_ids(findings) == ["SL101"]
        assert "bit-reproducibility" in findings[0].message

    def test_aliased_import_resolved(self):
        findings = lint(
            """
            from datetime import datetime as dt
            stamp = dt.now()
            """
        )
        assert rule_ids(findings) == ["SL101"]

    def test_module_level_random_fires(self):
        findings = lint(
            """
            import random
            def jitter():
                return random.random()
            """
        )
        assert rule_ids(findings) == ["SL101"]

    def test_os_urandom_fires(self):
        assert rule_ids(lint("import os\nseed = os.urandom(8)\n")) == ["SL101"]

    def test_seeded_rng_quiet(self):
        findings = lint(
            """
            import numpy as np
            def make_rng(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_random_instance_quiet(self):
        # A seeded Random *instance* is deterministic; only the module-level
        # functions share hidden global state.
        findings = lint(
            """
            import random
            rng = random.Random(42)
            def draw():
                return rng.random()
            """
        )
        assert rule_ids(findings) == []

    def test_local_variable_named_time_quiet(self):
        findings = lint(
            """
            def f(time):
                return time.upper()
            """
        )
        assert findings == []


class TestSL102SetIteration:
    def test_for_over_set_literal_fires(self):
        findings = lint(
            """
            def wake(engine, cores):
                for c in {1, 2, 3}:
                    engine.schedule_in(1.0, cores[c].wake)
            """
        )
        assert "SL102" in rule_ids(findings)
        assert findings[0].severity is Severity.WARNING

    def test_for_over_set_call_fires(self):
        findings = lint("for x in set(items):\n    x\n")
        assert rule_ids(findings) == ["SL102"]

    def test_comprehension_over_setcomp_fires(self):
        findings = lint("out = [x for x in {y for y in range(3)}]\n")
        assert "SL102" in rule_ids(findings)

    def test_sorted_set_quiet(self):
        assert lint("for x in sorted(set(items)):\n    x\n") == []

    def test_membership_test_quiet(self):
        assert lint("hit = 3 in {1, 2, 3}\n") == []


class TestSL103FloatTimeCompare:
    def test_eq_on_now_fires(self):
        findings = lint(
            """
            def poll(engine, deadline):
                return engine.now == deadline
            """
        )
        assert rule_ids(findings) == ["SL103"]

    def test_neq_on_issue_time_fires(self):
        findings = lint("stale = req.issue_time != t0\n")
        assert "SL103" in rule_ids(findings)

    def test_ordering_comparison_quiet(self):
        assert lint("late = engine.now >= deadline\n") == []

    def test_non_time_names_quiet(self):
        assert lint("same = res.replication_ratio == 0.0\n") == []


class TestSL104FrozenMutation:
    def test_mutation_outside_init_fires(self):
        findings = lint(
            """
            def tweak(cfg):
                object.__setattr__(cfg, "scale", 2.0)
            """
        )
        assert rule_ids(findings) == ["SL104"]

    def test_post_init_quiet(self):
        findings = lint(
            """
            class Geometry:
                def __post_init__(self):
                    object.__setattr__(self, "per_cluster", 4)
            """
        )
        assert findings == []

    def test_plain_setattr_quiet(self):
        assert lint("def f(obj):\n    obj.x = 1\n") == []


class TestSL105UnsafeSchedule:
    def test_nan_time_fires(self):
        findings = lint("engine.schedule(float('nan'), cb)\n")
        assert rule_ids(findings) == ["SL105"]

    def test_inf_time_fires(self):
        findings = lint("engine.schedule(float('inf'), cb)\n")
        assert rule_ids(findings) == ["SL105"]

    def test_negative_time_fires(self):
        assert rule_ids(lint("engine.schedule(-1.0, cb)\n")) == ["SL105"]

    def test_negative_delay_fires(self):
        assert rule_ids(lint("engine.schedule_in(-2.0, cb)\n")) == ["SL105"]

    def test_now_minus_expression_fires(self):
        findings = lint("engine.schedule(engine.now - latency, cb)\n")
        assert rule_ids(findings) == ["SL105"]

    def test_keyword_time_checked(self):
        findings = lint("engine.schedule(time=float('nan'), callback=cb)\n")
        assert rule_ids(findings) == ["SL105"]

    def test_clamped_time_quiet(self):
        assert lint("engine.schedule(max(engine.now, t - lat), cb)\n") == []

    def test_forward_time_quiet(self):
        assert lint("engine.schedule(engine.now + 4.0, cb)\n") == []


class TestSL106PublicApiDrift:
    def test_stale_export_fires(self):
        findings = lint(
            """
            __all__ = ["real", "ghost"]
            def real():
                pass
            """
        )
        assert rule_ids(findings) == ["SL106"]
        assert "ghost" in findings[0].message

    def test_consistent_all_quiet(self):
        findings = lint(
            """
            from os.path import join
            __all__ = ["join", "helper", "CONST"]
            CONST = 3
            def helper():
                pass
            """
        )
        assert findings == []

    def test_conditional_definition_counts(self):
        findings = lint(
            """
            __all__ = ["maybe"]
            try:
                from fastlib import maybe
            except ImportError:
                def maybe():
                    pass
            """
        )
        assert findings == []


class TestSuppression:
    def test_disable_comment_silences_rule(self):
        findings = lint(
            """
            import time
            t0 = time.time()  # simlint: disable=SL101
            """
        )
        assert findings == []

    def test_disable_all(self):
        findings = lint(
            """
            import time
            t0 = time.time()  # simlint: disable=all
            """
        )
        assert findings == []

    def test_disable_other_rule_does_not_silence(self):
        findings = lint(
            """
            import time
            t0 = time.time()  # simlint: disable=SL104
            """
        )
        assert rule_ids(findings) == ["SL101"]


class TestRunner:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert rule_ids(findings) == ["SL001"]

    def test_select_filters_rules(self):
        code = "import time\nt0 = time.time()\nengine.schedule(-1.0, cb)\n"
        findings = lint_source(code, "x.py", select=["SL105"])
        assert rule_ids(findings) == ["SL105"]

    def test_run_lint_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        findings = run_lint([str(tmp_path)])
        assert rule_ids(findings) == ["SL101"]
        assert findings[0].path.endswith("bad.py")

    def test_findings_sorted_and_formatted(self):
        f = Finding("a.py", 3, 7, "SL101", Severity.ERROR, "msg")
        assert f.format() == "a.py:3:7: error SL101: msg"

    def test_every_rule_listed(self):
        table = rule_table(RULES)
        assert len(table) == len(RULES) >= 6
        assert all(rid.startswith("SL") for rid, _sev, _title in table)


class TestCliLint:
    def test_shipped_tree_is_clean(self):
        assert main(["lint", "src/repro"]) == 0

    def test_bad_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SL101" in out

    def test_warnings_exit_zero_unless_strict(self, tmp_path):
        warny = tmp_path / "w.py"
        warny.write_text("for x in set(items):\n    x\n")
        assert main(["lint", str(warny)]) == 0
        assert main(["lint", "--strict", str(warny)]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "SL101" in capsys.readouterr().out


@pytest.mark.parametrize("rid", [r.rule_id for r in RULES])
def test_rule_ids_unique_and_stable(rid):
    assert sum(1 for r in RULES if r.rule_id == rid) == 1
