"""SimRace: static same-cycle conflict detection and dynamic confirmation."""

import textwrap

import pytest

from repro.analysis.core import Severity, rule_table
from repro.analysis.simrace import (
    RACE_RULES,
    analyze_source,
    confirm_races,
    diff_fingerprints,
    run_race,
    shuffle_outcomes,
)
from repro.core.designs import DesignSpec
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.suite import get_app


def _analyze(src, **kw):
    return analyze_source(textwrap.dedent(src), "fixture.py", **kw)


# --------------------------------------------------------------- static pass

# Two handlers co-scheduled at the same derived time, both mutating one
# MSHR file — the canonical hazard (mirrors the seed tree's
# _release_node/_l1_access shape before the priority fix).
WW_FIXTURE = """
class Node:
    def _dispatch(self, req):
        t1 = self.topo.hop(self.engine.now, req.src)
        if req.bypass:
            self.engine.schedule(t1, self._release, req)
        else:
            self.engine.schedule(t1, self._access, req)

    def _release(self, req):
        self.mshr.release(req.line)

    def _access(self, req):
        self.mshr.allocate(req.line, req)
"""


def test_write_write_pair_is_flagged():
    findings = _analyze(WW_FIXTURE)
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "SR201"
    assert f.severity is Severity.ERROR
    assert f.handlers == ("_access", "_release")
    assert "mshr" in f.resources
    assert "schedule() call order" in f.message


def test_read_read_pair_is_benign():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                self.engine.schedule(t1, self._a, req)
                self.engine.schedule(t1, self._b, req)

            def _a(self, req):
                return self.mshr.has_stalled()

            def _b(self, req):
                return self.mshr.has_stalled()
        """
    )
    assert findings == []


def test_read_write_pair_is_warning():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                self.engine.schedule(t1, self._reader, req)
                self.engine.schedule(t1, self._writer, req)

            def _reader(self, req):
                return self.mshr.has_stalled()

            def _writer(self, req):
                self.mshr.allocate(req.line, req)
        """
    )
    assert [f.rule_id for f in findings] == ["SR202"]
    assert findings[0].severity is Severity.WARNING


def test_priority_declaration_exempts_pair():
    src = WW_FIXTURE.replace(
        "self.engine.schedule(t1, self._release, req)",
        "self.engine.schedule(t1, self._release, req, priority=-1)",
    )
    assert _analyze(src) == []


def test_suppression_comment_silences_sr2xx():
    src = WW_FIXTURE.replace(
        "self.engine.schedule(t1, self._release, req)",
        "self.engine.schedule(t1, self._release, req)  # simrace: disable=SR201",
    )
    assert _analyze(src) == []
    # disable=all works too, and on the handler's def line.
    src2 = WW_FIXTURE.replace(
        "def _release(self, req):",
        "def _release(self, req):  # simrace: disable=all",
    )
    assert _analyze(src2) == []


def test_unrelated_rule_suppression_does_not_silence():
    src = WW_FIXTURE.replace(
        "self.engine.schedule(t1, self._release, req)",
        "self.engine.schedule(t1, self._release, req)  # simrace: disable=SR203",
    )
    assert [f.rule_id for f in _analyze(src)] == ["SR201"]


def test_now_scheduled_writer_is_flagged_sr203():
    findings = _analyze(
        """
        class Node:
            def _kick(self, req):
                free_at = max(self.engine.now, req.t)
                self.engine.schedule(free_at, self._release, req)

            def _go(self, req):
                t9 = self.bank.reserve(self.engine.now)
                self.engine.schedule(t9, self._access, req)

            def _release(self, req):
                self.mshr.release(req.line)

            def _access(self, req):
                self.mshr.allocate(req.line, req)
        """
    )
    assert [f.rule_id for f in findings] == ["SR203"]
    assert findings[0].handlers == ("_access", "_release")


def test_transitive_helper_writes_are_attributed():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                self.engine.schedule(t1, self._a, req)
                self.engine.schedule(t1, self._b, req)

            def _a(self, req):
                self._helper(req)

            def _helper(self, req):
                self.mshr.allocate(req.line, req)

            def _b(self, req):
                self.mshr.release(req.line)
        """
    )
    assert [f.rule_id for f in findings] == ["SR201"]


def test_local_alias_resolves_to_root_resource():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                self.engine.schedule(t1, self._a, req)
                self.engine.schedule(t1, self._b, req)

            def _a(self, req):
                mshr = self.mshrs[req.idx]
                mshr.allocate(req.line, req)

            def _b(self, req):
                self.mshrs[req.idx].release(req.line)
        """
    )
    assert [f.rule_id for f in findings] == ["SR201"]
    assert findings[0].resources == ("mshrs",)


def test_commutative_counters_are_not_conflicts():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                self.engine.schedule(t1, self._a, req)
                self.engine.schedule(t1, self._b, req)

            def _a(self, req):
                self.outstanding += 1

            def _b(self, req):
                self.outstanding -= 1
        """
    )
    assert findings == []


def test_different_time_expressions_do_not_pair():
    findings = _analyze(
        """
        class Node:
            def _go(self, req):
                t1 = self.topo.peek(req)
                t2 = self.topo.hop(t1, req.dst)
                self.engine.schedule(t1, self._a, req)
                self.engine.schedule(t2, self._b, req)

            def _a(self, req):
                self.mshr.allocate(req.line, req)

            def _b(self, req):
                self.mshr.release(req.line)
        """
    )
    assert findings == []


def test_select_filters_rules():
    findings = _analyze(WW_FIXTURE, select=["SR202"])
    assert findings == []
    findings = _analyze(WW_FIXTURE, select=["SR201"])
    assert [f.rule_id for f in findings] == ["SR201"]


def test_syntax_error_reported_not_raised():
    findings = analyze_source("def broken(:\n", "bad.py")
    assert [f.rule_id for f in findings] == ["SR001"]


def test_rule_table_lists_sr2xx():
    ids = [rid for rid, _sev, _title in rule_table(RACE_RULES)]
    assert ids == ["SR201", "SR202", "SR203"]


def test_shipped_tree_is_clean_of_sr2xx_errors():
    import repro

    pkg_dir = repro.__path__[0]
    errors = [
        f for f in run_race([pkg_dir]) if f.severity is Severity.ERROR
    ]
    assert errors == [], "\n".join(f.format() for f in errors)


def test_seed_hazard_shape_is_detected():
    """The exact pre-fix shape of GPUSystem._dispatch_to_node (two
    handlers on one derived t1, no priority) must be flagged."""
    findings = _analyze(
        """
        class GPUSystem:
            def _dispatch_to_node(self, req, t):
                flits = 1
                t1 = self.topo.core_to_dcl1(t, req.core_id, req.dcl1_id, flits)
                if req.kind in (2, 3):
                    t2 = self.topo.to_l2(t1, req.dcl1_id, req.l2_id, 1)
                    self.engine.schedule(t2, self._at_l2, req)
                    self.engine.schedule(t1, self._release_node, req)
                else:
                    self.engine.schedule(t1, self._l1_access, req)

            def _release_node(self, req):
                self._node_waiters[req.dcl1_id].popleft()

            def _l1_access(self, req):
                self._node_waiters[req.dcl1_id].append(req)

            def _at_l2(self, req):
                return req
        """
    )
    assert [f.rule_id for f in findings] == ["SR201"]
    assert findings[0].handlers == ("_l1_access", "_release_node")


# ---------------------------------------------------------- dynamic confirm


class _MiniMshr:
    """One-entry MSHR: the shared resource of the dynamic fixtures."""

    def __init__(self):
        self.held = True
        self.stalls = 0

    def release(self, _req):
        self.held = False

    def allocate(self, _req):
        if self.held:
            self.stalls += 1
        else:
            self.held = True


def _race_outcome(engine):
    """Two handlers writing one MSHR at the same cycle: the outcome
    (stall or not) depends on which runs first."""
    mshr = _MiniMshr()

    def release(req):
        mshr.release(req)

    def allocate(req):
        mshr.allocate(req)

    engine.schedule(5.0, release, "r")
    engine.schedule(5.0, allocate, "a")
    engine.run()
    return mshr.stalls


def test_mshr_write_write_pair_confirmed_dynamically():
    baseline = _race_outcome(Engine())
    outcomes = shuffle_outcomes(_race_outcome, k=8, seed=1)
    assert any(o != baseline for o in outcomes), (
        "shuffle never flipped the same-cycle release/allocate order"
    )


def test_read_read_pair_benign_dynamically():
    def outcome(engine):
        mshr = _MiniMshr()
        seen = []

        def peek_a(_):
            seen.append(mshr.held)

        def peek_b(_):
            seen.append(mshr.held)

        engine.schedule(5.0, peek_a, None)
        engine.schedule(5.0, peek_b, None)
        engine.run()
        return tuple(seen)

    baseline = outcome(Engine())
    assert all(o == baseline for o in shuffle_outcomes(outcome, k=8, seed=1))


def test_priority_pins_order_even_under_shuffle():
    def outcome(engine):
        mshr = _MiniMshr()
        engine.schedule(5.0, mshr.allocate, "a")
        engine.schedule(5.0, mshr.release, "r", priority=-1)
        engine.run()
        return mshr.stalls

    baseline = outcome(Engine())
    assert baseline == 0  # release declared to run first
    assert all(o == 0 for o in shuffle_outcomes(outcome, k=8, seed=1))


def test_shuffle_preserves_fifo_within_one_handler():
    def outcome(engine):
        order = []

        def handler(tag):
            order.append(tag)

        for tag in range(6):
            engine.schedule(3.0, handler, tag)
        engine.run()
        return order

    for o in shuffle_outcomes(outcome, k=6, seed=1):
        assert o == list(range(6))


def test_shuffle_records_co_scheduled_pairs():
    eng = Engine(shuffle_seed=7)

    def a(_):
        pass

    def b(_):
        pass

    eng.schedule(1.0, a)
    eng.schedule(1.0, b)
    eng.run()
    assert len(eng.batch_pairs) == 1
    ((pa, pb),) = eng.batch_pairs
    assert pa.endswith("a") and pb.endswith("b")


def test_diff_fingerprints():
    assert diff_fingerprints({"x": 1.0}, {"x": 1.0}) == []
    d = diff_fingerprints({"x": 1.0}, {"x": 2.0})
    assert d and "x" in d[0]


@pytest.mark.parametrize("design", ["pr40", "baseline"])
def test_confirm_shipped_configs_bit_identical(design):
    spec = (
        DesignSpec.private(40) if design == "pr40" else DesignSpec.baseline()
    )
    report = confirm_races(
        get_app("P-2MM"), spec, SimConfig(scale=0.05), k=2
    )
    assert report.ok, report.render()
    assert report.k == 2
    # The replay actually shuffled something, or the test proves nothing.
    assert all(run.shuffled_batches > 0 for run in report.runs)


def test_confirm_report_verdicts():
    findings = _analyze(WW_FIXTURE)
    report = confirm_races(
        get_app("P-2MM"), DesignSpec.private(40), SimConfig(scale=0.05), k=1
    )
    # The fixture pair never runs inside GPUSystem.
    assert report.verdict_for(findings[0]) == "UNOBSERVED"
    text = report.render(findings)
    assert "UNOBSERVED" in text and "overall" in text
