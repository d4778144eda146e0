"""SimFlow: static resource-flow liveness analysis (SF301–SF303)."""

import textwrap
from pathlib import Path

from repro.analysis.simflow import (
    FLOW_RULES,
    flow_source,
    run_flow,
)
from repro.analysis.core import Severity, rule_table

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _analyze(src, **kw):
    return flow_source(textwrap.dedent(src), "fixture.py", **kw)


# ------------------------------------------------------------ SF301 (leaks)

# A handler allocates an MSHR entry but neither it nor anything in its
# schedule closure ever releases one — every acquisition leaks.
LEAK_FIXTURE = """
class Node:
    def start(self, req):
        self.engine.schedule(0.0, self._grab, req)

    def _grab(self, req):
        self.mshrs.allocate(req.line, req)
        self.engine.schedule(1.0, self._finish, req)

    def _finish(self, req):
        req.done = True
"""


def test_acquire_without_reachable_release_is_flagged():
    findings = _analyze(LEAK_FIXTURE)
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "SF301"
    assert f.severity is Severity.ERROR
    assert f.resource == "mshrs"
    assert "ever releases" in f.message


def test_release_in_scheduled_continuation_is_live():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                self.mshrs.release(req.line)
        """
    )
    assert findings == []


def test_release_two_hops_down_the_schedule_graph_is_live():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._middle, req)

            def _middle(self, req):
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                self.mshrs.release(req.line)
        """
    )
    assert findings == []


def test_release_via_transitive_helper_is_live():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)
                self._cleanup(req)

            def _cleanup(self, req):
                self.mshrs.release(req.line)
        """
    )
    assert findings == []


def test_ledger_scope_names_are_tracked():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self._ledger.acquire("q1-credit", id(req), req)
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                req.done = True
        """
    )
    assert [f.rule_id for f in findings] == ["SF301"]
    assert findings[0].resource == "q1-credit"


def test_credit_arithmetic_is_tracked():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._admit, req)

            def _admit(self, req):
                self._node_credits[req.node] -= 1
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                req.done = True
        """
    )
    assert [f.rule_id for f in findings] == ["SF301"]
    assert findings[0].resource == "_node_credits"


def test_credit_decrement_paired_with_increment_is_live():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._admit, req)

            def _admit(self, req):
                credits = self._node_credits
                credits[req.node] -= 1
                self.engine.schedule(1.0, self._release, req)

            def _release(self, req):
                self._node_credits[req.node] += 1
        """
    )
    assert findings == []


def test_raise_while_holding_is_an_exception_path_leak():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._handler, req)

            def _handler(self, req):
                self.mshrs.allocate(req.line, req)
                if req.bad:
                    raise RuntimeError("bad request")
                self.mshrs.release(req.line)
        """
    )
    assert [f.rule_id for f in findings] == ["SF301"]
    assert "exception path leaks" in findings[0].message
    assert "raise" in findings[0].message or "raises" in findings[0].message


def test_release_in_finally_covers_the_raise_path():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._handler, req)

            def _handler(self, req):
                self.mshrs.allocate(req.line, req)
                try:
                    if req.bad:
                        raise RuntimeError("bad request")
                finally:
                    self.mshrs.release(req.line)
        """
    )
    assert findings == []


def test_handed_to_continuation_before_raise_is_not_a_path_leak():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._handler, req)

            def _handler(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._finish, req)
                if req.bad:
                    raise RuntimeError("bad request")

            def _finish(self, req):
                self.mshrs.release(req.line)
        """
    )
    assert findings == []


# ---------------------------------------------------------------- SF302


def test_stray_release_is_flagged():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._done, req)

            def _done(self, req):
                self.node_credits[req.node] += 1
        """
    )
    assert [f.rule_id for f in findings] == ["SF302"]
    assert findings[0].resource == "node_credits"
    assert "ever acquires" in findings[0].message


def test_double_release_on_one_path_is_flagged():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(0.0, self._done, req)

            def _done(self, req):
                self.mshrs.release(req.line)
                self.mshrs.release(req.line)
        """
    )
    assert [f.rule_id for f in findings] == ["SF302"]
    assert "twice" in findings[0].message


def test_single_release_in_each_branch_is_not_double():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(0.0, self._done, req)

            def _done(self, req):
                if req.fast:
                    self.mshrs.release(req.line)
                else:
                    self.mshrs.release(req.line)
        """
    )
    assert findings == []


# ---------------------------------------------------------------- SF303

CYCLE_FIXTURE = """
class Node:
    def start(self, req):
        self.engine.schedule(0.0, self._a, req)

    def _a(self, req):
        self.ports.acquire(req.port, req)
        self.mshrs.allocate(req.line, req)
        self.engine.schedule(1.0, self._done, req)

    def _b(self, req):
        self.mshrs.allocate(req.line, req)
        self.ports.acquire(req.port, req)
        self.engine.schedule(1.0, self._done, req)

    def _done(self, req):
        self.ports.release(req.port)
        self.mshrs.release(req.line)
"""


def test_acquire_order_cycle_is_flagged():
    findings = _analyze(CYCLE_FIXTURE)
    assert [f.rule_id for f in findings] == ["SF303"]
    assert "hold-and-wait" in findings[0].message
    assert "mshrs" in findings[0].message and "ports" in findings[0].message


def test_consistent_acquire_order_is_clean():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._a, req)

            def _a(self, req):
                self.ports.acquire(req.port, req)
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._done, req)

            def _b(self, req):
                self.ports.acquire(req.port, req)
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._done, req)

            def _done(self, req):
                self.ports.release(req.port)
                self.mshrs.release(req.line)
        """
    )
    assert findings == []


def test_order_edge_through_callee_acquires():
    # _a holds ports and calls a helper that acquires mshrs; _b acquires
    # in the opposite direct order — still a cycle.
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._a, req)

            def _a(self, req):
                self.ports.acquire(req.port, req)
                self._fill(req)
                self.engine.schedule(1.0, self._done, req)

            def _fill(self, req):
                self.mshrs.allocate(req.line, req)

            def _b(self, req):
                self.mshrs.allocate(req.line, req)
                self.ports.acquire(req.port, req)
                self.engine.schedule(1.0, self._done, req)

            def _done(self, req):
                self.ports.release(req.port)
                self.mshrs.release(req.line)
        """
    )
    assert [f.rule_id for f in findings] == ["SF303"]


# ------------------------------------------------------- scoping & plumbing


def test_classes_without_schedule_sites_are_skipped():
    # Resource wrappers implement acquire/release primitives without the
    # handler protocol; they are out of scope by design.
    findings = _analyze(
        """
        class MSHRFile:
            def allocate(self, line, req):
                self.entries[line] = req

            def release(self, line):
                return self.entries.pop(line)
        """
    )
    assert findings == []


def test_suppression_comment_silences_sf301():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)  # simflow: disable=SF301
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                req.done = True
        """
    )
    assert findings == []


def test_unrelated_suppression_does_not_silence():
    findings = _analyze(
        """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)  # simflow: disable=SF303
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                req.done = True
        """
    )
    assert [f.rule_id for f in findings] == ["SF301"]


def test_select_filters_rules():
    findings = _analyze(LEAK_FIXTURE, select=["SF303"])
    assert findings == []
    findings = _analyze(LEAK_FIXTURE, select=["sf301"])
    assert [f.rule_id for f in findings] == ["SF301"]


def test_syntax_error_reported_not_raised():
    findings = flow_source("def broken(:\n", "bad.py")
    assert [f.rule_id for f in findings] == ["SF001"]


def test_rule_table_lists_sf3xx():
    ids = [rid for rid, _sev, _title in rule_table(FLOW_RULES)]
    assert ids == ["SF301", "SF302", "SF303"]


def test_finding_format_matches_lint_convention():
    f = _analyze(LEAK_FIXTURE)[0]
    text = f.format()
    assert text.startswith("fixture.py:")
    assert "error SF301:" in text


def test_shipped_tree_is_clean():
    # The acceptance bar: `repro flow --strict` exits 0 on src/repro —
    # the shipped request lifecycle releases everything it acquires and
    # acquires in one global order.
    findings = run_flow([str(SRC_ROOT)])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_flow_strict_on_shipped_tree(capsys):
    from repro.cli import main

    assert main(["flow", "--strict", str(SRC_ROOT)]) == 0


def test_cli_flow_flags_fixture(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "leak.py"
    bad.write_text(textwrap.dedent(LEAK_FIXTURE))
    assert main(["flow", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SF301" in out


def test_cli_flow_unknown_rule_is_usage_error(capsys):
    from repro.cli import main

    assert main(["flow", "--select", "SF999", "."]) == 2


def test_cli_analyze_runs_all_three_tools(tmp_path, capsys):
    from repro.cli import main

    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert main(["analyze", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "simlint" in out and "simrace" in out and "simflow" in out
    assert "simpure" in out
    assert "ok" in out


def test_cli_analyze_combined_exit_code(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "leak.py"
    bad.write_text(textwrap.dedent(LEAK_FIXTURE))
    assert main(["analyze", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
