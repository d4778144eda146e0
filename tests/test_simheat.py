"""SimHeat: twin-path drift & hot-path hygiene analysis (SH600–SH615)
and its force-fast/force-slow differential replay confirmer."""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

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


def _replace_last(src: str, old: str, new: str) -> str:
    head, sep, tail = src.rpartition(old)
    assert sep, f"fixture drift target {old!r} not found"
    return head + new + tail


# A clean lockstep twin pair: the fast body replicates the slow body
# minus the ledger guard, and a wiring method references the fast twin.
LOCKSTEP = """
FAST_PATH_PAIRS = [
    ("Server.reserve_fast", "Server.reserve", "lockstep", {}),
]


class Server:
    def wire(self):
        self._reserve = self.reserve_fast

    def reserve(self, now, size=1.0, owner=None):
        if self._ledger is not None:
            self._ledger.note_acquire(self.name, owner, now)
        start = now if now > self.next_free else self.next_free
        occupancy = self.service * size
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        self.num_served += 1
        return start + occupancy + self.latency

    def reserve_fast(self, now, size=1.0):
        start = now if now > self.next_free else self.next_free
        occupancy = self.service * size
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        self.num_served += 1
        return start + occupancy + self.latency
"""


# ------------------------------------------------------------ rule table


def test_rule_table_lists_every_rule():
    table = rule_table(HEAT_RULES)
    ids = [rid for rid, _, _ in table]
    assert ids == sorted(ids)
    assert "SH600" in ids and "SH601" in ids and "SH615" in ids
    assert all(sev in ("error", "warning") for _, sev, _ in table)


# ----------------------------------------------------- SH600 (parse error)


def test_unparsable_source_is_sh600():
    findings = _analyze("def broken(:\n")
    assert _rules(findings) == ["SH600"]
    assert findings[0].severity is Severity.ERROR


# -------------------------------------------------- SH601 (twin drift)


def test_clean_lockstep_pair_passes():
    assert _analyze(LOCKSTEP) == []


def test_lockstep_arithmetic_drift_is_flagged():
    drifted = _replace_last(
        LOCKSTEP,
        "return start + occupancy + self.latency",
        "return start + occupancy + self.latency + 1.0",
    )
    findings = _analyze(drifted)
    assert "SH601" in _rules(findings)


def test_lockstep_reordered_effects_are_flagged():
    drifted = _replace_last(
        LOCKSTEP,
        "        self.next_free = start + occupancy\n"
        "        self.busy_cycles += occupancy\n",
        "        self.busy_cycles += occupancy\n"
        "        self.next_free = start + occupancy\n",
    )
    # Same effects, different order: still drift (float state updates
    # interleave with reads in later statements).
    assert "SH601" in _rules(_analyze(drifted))


def test_manifest_naming_a_missing_fast_def_is_sh601():
    findings = _analyze(
        """
        FAST_PATH_PAIRS = [
            ("Server.reserve_fast", "Server.reserve", "lockstep", {}),
        ]

        class Server:
            def reserve(self, now):
                return now
        """
    )
    assert "SH601" in _rules(findings)


# ------------------------------------------------ SH602 (counter drift)


def test_counter_missing_from_fast_twin_is_sh602():
    drifted = _replace_last(LOCKSTEP, "        self.num_served += 1\n", "")
    assert "SH602" in _rules(_analyze(drifted))


# --------------------------------------------- SH603 (unreachable fast)


def test_unwired_fast_twin_is_sh603():
    unwired = LOCKSTEP.replace(
        "    def wire(self):\n        self._reserve = self.reserve_fast\n\n",
        "",
    )
    findings = _analyze(unwired)
    assert _rules(findings) == ["SH603"]
    assert "never referenced" in findings[0].message


def test_contradictory_fast_gate_is_sh603():
    findings = _analyze(
        """
        class System:
            def _wire(self):
                self._fast = self._ledger is None

            def _complete(self, req):
                if self._fast and self._ledger is not None:
                    self._ledger.note_release(req)
        """
    )
    assert "SH603" in _rules(findings)


# ------------------------------------------ SH604 (slow call on fast path)


def test_slow_twin_call_inside_fast_twin_body_is_sh604():
    findings = _analyze(
        """
        FAST_PATH_PAIRS = [
            ("Topo.make_fast_routes", ("Topo.core_to_dcl1",), "delegated", {}),
        ]


        class Topo:
            def wire(self):
                self._routes = self.make_fast_routes()

            def core_to_dcl1(self, t, core, dcl1, flits):
                return t + self.hop_latency

            def make_fast_routes(self):
                def go(t, core, dcl1, flits):
                    return self.core_to_dcl1(t, core, dcl1, flits)
                return (go,)
        """
    )
    assert "SH604" in _rules(findings)


def test_delegating_closure_that_reimplements_is_clean():
    findings = _analyze(
        """
        FAST_PATH_PAIRS = [
            ("Topo.make_fast_routes", ("Topo.core_to_dcl1",), "delegated", {}),
        ]


        class Topo:
            def wire(self):
                self._routes = self.make_fast_routes()

            def core_to_dcl1(self, t, core, dcl1, flits):
                return t + self.hop_latency

            def make_fast_routes(self):
                lat = self.hop_latency

                def go(t, core, dcl1, flits):
                    return t + lat
                return (go,)
        """
    )
    assert findings == []


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
    """Copy src/repro to a temp dir with one drift seeded into ``rel``."""
    root = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, root)
    target = root / rel
    src = target.read_text(encoding="utf-8")
    assert old in src, f"seed target not found in {rel}"
    target.write_text(src.replace(old, new), encoding="utf-8")
    return root


def test_seeded_reserve_drift_is_caught_package_wide(tmp_path):
    root = _seeded_tree(
        tmp_path, "sim/resources.py",
        "        return start + occupancy + self.latency\n",
        "        return start + occupancy + self.latency * 1.0000001\n",
    )
    findings = run_heat([str(root)])
    assert "SH601" in _rules(findings)
    assert any("reserve" in f.pair for f in findings if f.rule_id == "SH601")


def test_seeded_counter_drop_is_caught_package_wide(tmp_path):
    # Drop the load counter from the fast issue twin (_issue_load_fast);
    # the slow twin still bumps it, and it is not a declared
    # slow-only counter.
    root = _seeded_tree(
        tmp_path, "sim/system.py",
        "        self.outstanding += 1\n        self._n_loads += 1\n",
        "        self.outstanding += 1\n",
    )
    findings = run_heat([str(root)])
    assert "SH602" in _rules(findings)


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
    report = HeatReport(DEFAULT_CONFIRM_GRID, 0.1, [])
    assert report.any_decoupled


def test_report_grades_findings_by_probe_evidence():
    from repro.analysis.simheat import HeatFinding

    drift = HeatFinding("x.py", 1, 0, "SH601", Severity.ERROR, "drift",
                        pair="reserve_fast->reserve")
    report_bad = HeatReport(
        [("P-2MM", "Sh40")], 0.1,
        [HeatProbe("twin-diff", "P-2MM/Sh40", False, "diverged")])
    assert report_bad.verdict_for(drift) == "CONFIRMED"
    assert not report_bad.ok
    assert "UNSOUND" in report_bad.render([drift])

    report_ok = HeatReport(
        [("P-2MM", "Sh40")], 0.1,
        [HeatProbe("twin-diff", "P-2MM/Sh40", True)])
    assert report_ok.verdict_for(drift) == "BENIGN"

    homing = HeatFinding("x.py", 1, 0, "SH601", Severity.ERROR, "drift",
                         pair="make_fast_home_of->home_of")
    undecoupled = HeatReport(
        [("C-BLK", "Baseline")], 0.1,
        [HeatProbe("twin-diff", "C-BLK/Baseline", True)])
    assert undecoupled.verdict_for(homing) == "UNOBSERVED"

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
    assert "SH601" in out and "SH614" in out


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
