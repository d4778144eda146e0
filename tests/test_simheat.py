"""SimHeat: hot-path hygiene analysis (SH600, SH611–SH615) and its
force-fast/force-slow differential replay confirmer."""

import json
import shutil
import textwrap
from pathlib import Path

from repro.analysis.core import Severity, rule_table
from repro.analysis.simheat import (
    DEFAULT_CONFIRM_GRID,
    HEAT_RULES,
    HeatProbe,
    HeatReport,
    confirm_heat,
    heat_source,
    run_heat,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _analyze(src, **kw):
    return heat_source(textwrap.dedent(src), **kw)


def _rules(findings):
    return [f.rule_id for f in findings]


# ------------------------------------------------------------ rule table


def test_rule_table_lists_every_rule():
    table = rule_table(HEAT_RULES)
    ids = [rid for rid, _, _ in table]
    assert ids == sorted(ids)
    assert "SH600" in ids and "SH615" in ids
    assert all(sev in ("error", "warning") for _, sev, _ in table)


# ----------------------------------------------------- SH600 (parse error)


def test_unparsable_source_is_sh600():
    findings = _analyze("def broken(:\n")
    assert _rules(findings) == ["SH600"]
    assert findings[0].severity is Severity.ERROR


# --------------------------------------- SH611-SH615 (hot-path hygiene)

HOT_HEADER = """
SIMHEAT_HOT_FUNCTIONS = ("System._complete",)


class System:
"""


def _hot(body):
    return HOT_HEADER + textwrap.indent(textwrap.dedent(body), "    ")


def test_per_event_list_allocation_is_sh611():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            batch = [req.line, req.issue_time]
            self.sink(batch)
        """
    ))
    assert _rules(findings) == ["SH611"]
    assert findings[0].handler == "System._complete"


def test_per_event_fstring_and_dict_call_are_sh611():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            self.sink(f"done {req.line}")
            self.stats = dict()
        """
    ))
    assert _rules(findings) == ["SH611", "SH611"]


def test_repeated_chain_in_loop_is_sh612():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            while self.pending:
                self.l1.mshr.free(1)
                self.l1.mshr.poke(2)
        """
    ))
    assert "SH612" in _rules(findings)
    assert "self.l1.mshr" in findings[0].message


def test_config_traversal_and_environment_read_are_sh613():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            import os
            lat = self.cfg.gpu.l2_latency
            knob = os.getenv("REPRO_KNOB")
            self.sink(lat, knob)
        """
    ))
    rules = _rules(findings)
    assert rules.count("SH613") == 2


def test_request_escape_into_undeclared_container_is_sh614():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            self._audit_trail.append(req)
        """
    ))
    assert _rules(findings) == ["SH614"]


def test_declared_safe_sink_is_not_sh614():
    src = _hot(
        """
        def _complete(self, req):
            self._req_pool.append(req)
        """
    ).replace(
        'SIMHEAT_HOT_FUNCTIONS = ("System._complete",)',
        'SIMHEAT_HOT_FUNCTIONS = ("System._complete",)\n'
        'SIMHEAT_REQUEST_SAFE_SINKS = ("_req_pool",)',
    )
    assert _analyze(src) == []


def test_print_and_logging_in_hot_handler_are_sh615():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            print("completing", req)
            self.logger.debug("done")
        """
    ))
    assert _rules(findings) == ["SH615", "SH615"]


def test_schedule_callbacks_are_hot_without_a_manifest():
    findings = _analyze(
        """
        class System:
            def _issue(self, wf):
                self.schedule(1.0, self._complete, wf)

            def _complete(self, req):
                self.trace = [req]
        """
    )
    assert _rules(findings) == ["SH611"]
    assert findings[0].handler == "System._complete"


def test_instrumentation_guard_is_exempt_from_hot_rules():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            if self._ledger is not None:
                self._ledger.note(f"slow path {req}")
        """
    ))
    assert findings == []


# ------------------------------------------------- suppression / select


def test_inline_suppression_comment_is_honoured():
    findings = _analyze(_hot(
        """
        def _complete(self, req):
            batch = [req.line]  # simheat: disable=SH611
            self.sink(batch)
        """
    ))
    assert findings == []


def test_select_filters_to_requested_rules():
    src = _hot(
        """
        def _complete(self, req):
            print("completing")
            self._audit_trail.append(req)
        """
    )
    assert _rules(_analyze(src, select={"SH615"})) == ["SH615"]
    assert _rules(_analyze(src, select={"SH614"})) == ["SH614"]


# -------------------------------------------------- the shipped package


def test_shipped_package_is_heat_clean():
    assert run_heat([str(SRC_ROOT)]) == []


def _seeded_tree(tmp_path, rel, old, new):
    """Copy src/repro to a temp dir with one defect seeded into ``rel``."""
    root = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, root)
    target = root / rel
    src = target.read_text(encoding="utf-8")
    assert old in src, f"seed target not found in {rel}"
    target.write_text(src.replace(old, new), encoding="utf-8")
    return root


def test_seeded_allocation_in_a_fast_twin_is_caught_package_wide(tmp_path):
    # Crossbar.traverse_fast is neither scheduled nor called by a
    # scheduled handler: only its SIMHEAT_HOT_FUNCTIONS entry makes it hot.
    root = _seeded_tree(
        tmp_path, "noc/crossbar.py",
        "        p = self._out[out_port]\n",
        "        hops = [t_in, flits]\n        p = self._out[out_port]\n",
    )
    findings = run_heat([str(root)])
    assert [(f.rule_id, f.handler) for f in findings] == [
        ("SH611", "Crossbar.traverse_fast")]


# ----------------------------------------------------------- confirmer


def test_confirm_heat_twin_replays_are_sound():
    report = confirm_heat(grid=[("P-2MM", "Sh40+C10")], scale=0.05,
                          trace_alloc=False)
    assert report.ok
    assert report.counts().get("twin-diff") == 1
    text = report.render()
    assert "SOUND" in text and "bit-identical" in text


def test_confirm_heat_alloc_profile_attributes_handlers():
    report = confirm_heat(grid=[("P-2MM", "Sh40")], scale=0.05,
                          trace_alloc=True)
    assert report.ok
    assert report.alloc_rows
    names = {r.handler for r in report.alloc_rows}
    assert any("_complete" in n for n in names)
    assert "alloc-profiled" in report.render()


def test_default_confirm_grid_has_a_decoupled_point():
    designs = [d.lower() for _, d in DEFAULT_CONFIRM_GRID]
    assert any(d.startswith("sh") or d.startswith("pr") for d in designs)


def test_report_grades_findings_by_probe_evidence():
    from repro.analysis.simheat import HeatFinding

    unparsable = HeatFinding("x.py", 1, 0, "SH600", Severity.ERROR,
                             "syntax error")
    report_bad = HeatReport(
        [("P-2MM", "Sh40")], 0.1,
        [HeatProbe("twin-diff", "P-2MM/Sh40", False, "diverged")])
    assert report_bad.verdict_for(unparsable) == "UNOBSERVED"
    assert not report_bad.ok
    assert "UNSOUND" in report_bad.render([unparsable])

    report_ok = HeatReport(
        [("P-2MM", "Sh40")], 0.1,
        [HeatProbe("twin-diff", "P-2MM/Sh40", True)])
    assert report_ok.verdict_for(unparsable) == "UNOBSERVED"

    hot = HeatFinding("x.py", 1, 0, "SH611", Severity.WARNING, "alloc",
                      handler="System._complete")
    assert report_ok.verdict_for(hot) == "UNOBSERVED"  # no alloc rows


# ----------------------------------------------------------------- CLI


def test_cli_heat_static_is_clean_on_shipped_tree(capsys):
    from repro.cli import main

    assert main(["heat", "--strict", str(SRC_ROOT)]) == 0


def test_cli_heat_list_rules(capsys):
    from repro.cli import main

    assert main(["heat", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SH600" in out and "SH614" in out
    assert "SH601" not in out


def test_cli_heat_unknown_rule_is_usage_error(capsys):
    from repro.cli import main

    assert main(["heat", "--select", "SH999", str(SRC_ROOT)]) == 2


def test_cli_analyze_json_includes_simheat(capsys):
    from repro.cli import main

    assert main(["analyze", "--json", str(SRC_ROOT / "analysis")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    tools = {t["tool"] for t in doc["tools"]}
    assert "simheat" in tools
