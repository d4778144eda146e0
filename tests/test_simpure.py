"""SimPure: cache-key & fingerprint soundness analysis (SP401, SP402)
and its mutate-and-replay confirmer."""

import json
import textwrap
from pathlib import Path

from repro.analysis.core import Severity, rule_table
from repro.analysis.simpure import (
    DECLARED_ENV_INPUTS,
    PURITY_RULES,
    mutated_value,
    purity_source,
    run_purity,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _analyze(src, **kw):
    # "<string>" counts as sim-core, so fixtures are checked by default.
    return purity_source(textwrap.dedent(src), **kw)


# ------------------------------------------------- SP401 (undeclared inputs)


def test_undeclared_env_read_is_flagged():
    findings = _analyze(
        """
        import os

        def tick(self):
            limit = os.environ.get("REPRO_LIMIT", "0")
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]
    assert findings[0].severity is Severity.ERROR
    assert "REPRO_LIMIT" in findings[0].message
    assert "sim_cache_key" in findings[0].message


def test_os_getenv_and_environ_subscript_are_flagged():
    findings = _analyze(
        """
        import os

        def a(self):
            return os.getenv("REPRO_A")

        def b(self):
            return os.environ["REPRO_B"]
        """
    )
    assert [f.rule_id for f in findings] == ["SP401", "SP401"]


def test_env_name_resolved_through_module_constant():
    findings = _analyze(
        """
        import os

        LIMIT_ENV = "REPRO_LIMIT"

        def tick(self):
            return os.environ.get(LIMIT_ENV, "0")
        """
    )
    assert len(findings) == 1
    assert "REPRO_LIMIT" in findings[0].message


def test_declared_input_in_resolver_is_allowed():
    findings = _analyze(
        """
        import os

        def watchdog_env_enabled():
            return os.environ.get("REPRO_WATCHDOG", "") not in ("", "0")

        def cache_from_env():
            return os.environ.get("REPRO_CACHE_DIR", "")
        """
    )
    assert findings == []


def test_declared_input_outside_resolver_is_flagged():
    findings = _analyze(
        """
        import os

        def run(self):
            if os.getenv("REPRO_WATCHDOG"):
                pass
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]
    assert "resolver" in findings[0].message


def test_import_alias_of_environ_is_resolved():
    findings = _analyze(
        """
        from os import environ

        def tick(self):
            return environ.get("REPRO_LIMIT")
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]


def test_global_declaration_is_flagged():
    findings = _analyze(
        """
        COUNTER = 0

        def bump():
            global COUNTER
            COUNTER += 1
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]
    assert "global" in findings[0].message


def test_runtime_class_attribute_assignment_is_flagged():
    findings = _analyze(
        """
        class Cache:
            capacity = 2

        def tune():
            Cache.capacity = 4
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]
    assert "Cache.capacity" in findings[0].message


def test_class_attribute_at_class_scope_is_fine():
    findings = _analyze(
        """
        class Cache:
            capacity = 2
        """
    )
    assert findings == []


def test_set_literal_iteration_is_flagged():
    findings = _analyze(
        """
        def wake(engine, cores):
            for c in {1, 2, 3}:
                engine.schedule(1.0, cores[c].wake)
        """
    )
    assert [f.rule_id for f in findings] == ["SP401"]
    assert findings[0].severity is Severity.ERROR
    assert "hash seed" in findings[0].message
    assert "sorted(...)" in findings[0].message


def test_set_call_iteration_is_flagged():
    findings = _analyze("for x in set(items):\n    x\n")
    assert [f.rule_id for f in findings] == ["SP401"]


def test_comprehension_over_set_comprehension_is_flagged():
    findings = _analyze("out = [x for x in {y for y in range(3)}]\n")
    assert [f.rule_id for f in findings] == ["SP401"]


def test_sorted_set_iteration_is_allowed():
    assert _analyze("for x in sorted(set(items)):\n    x\n") == []


def test_set_membership_test_is_allowed():
    assert _analyze("hit = 3 in {1, 2, 3}\n") == []


def test_non_sim_core_paths_are_out_of_scope():
    env_read = """
        import os

        def tick(self):
            return os.environ.get("REPRO_LIMIT")
    """
    set_iteration = "for x in set(items):\n    x\n"
    for src in (textwrap.dedent(env_read), set_iteration):
        assert purity_source(src, path="src/repro/experiments/base.py") == []
        assert purity_source(src, path="src/repro/sim/system.py") != []


# -------------------------------------------- suppression / select / errors


def test_suppression_comment_silences_a_rule():
    findings = _analyze(
        """
        import os

        def tick(self):
            return os.environ.get("REPRO_LIMIT")  # simpure: disable=SP401
        """
    )
    assert findings == []


def test_select_restricts_rules(tmp_path):
    tree = _write_tree(tmp_path, ["scale"])
    (tree / "repro" / "sim" / "knobs.py").write_text(
        'import os\n\ndef tick(self):\n    return os.getenv("REPRO_LIMIT")\n'
    )

    def rules(select=None):
        return {f.rule_id for f in run_purity([str(tree)], select=select)}

    assert rules() == {"SP401", "SP402"}
    assert rules(["SP401"]) == {"SP401"}
    assert rules(["SP402"]) == {"SP402"}


def test_syntax_error_is_reported_not_raised():
    findings = purity_source("def broken(:\n")
    assert len(findings) == 1
    assert findings[0].rule_id == "SP001"


def test_rule_table_lists_sp401_sp402():
    ids = [rid for rid, _, _ in rule_table(PURITY_RULES)]
    assert ids == ["SP401", "SP402"]


def test_declared_env_inputs_document_their_rationale():
    assert set(DECLARED_ENV_INPUTS) == {
        "REPRO_WATCHDOG", "REPRO_SANITIZE", "REPRO_CACHE_DIR",
    }
    assert all(len(why) > 10 for why in DECLARED_ENV_INPUTS.values())


# -------------------------------------------------- SP402 (over-keying)


def _write_tree(tmp_path, read_fields):
    """A fake sim tree defining SimConfig and reading only ``read_fields``.

    SP402 diffs the *real* ``cache_key_manifest()`` against the reads in
    the scanned tree, anchored at the scanned ``SimConfig`` definition.
    """
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "config.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class SimConfig:\n"
        "    scale: float = 1.0\n"
        "    max_events: int = 100\n"
    )
    body = "\n".join(f"    x = cfg.{name}" for name in read_fields) or "    pass"
    (pkg / "system.py").write_text(f"def run(cfg):\n{body}\n")
    return tmp_path


def test_unread_keyed_field_is_flagged(tmp_path):
    findings = run_purity([str(_write_tree(tmp_path, ["scale"]))])
    flagged = {f.message.split()[2] for f in findings if f.rule_id == "SP402"}
    # The fake tree reads only cfg.scale, so other keyed SimConfig fields
    # (from the real manifest) are reported as over-keying...
    assert "SimConfig.max_events" in flagged
    assert "SimConfig.scale" not in flagged
    # ...and declared-neutral fields are never over-keying candidates.
    assert "SimConfig.sanitize" not in flagged
    assert "SimConfig.watchdog" not in flagged


def test_classvar_annotations_are_not_fields(tmp_path):
    # SP402 anchors an unread keyed field at its definition line.  A
    # ClassVar is not a dataclass field, so one that shares a keyed
    # field's name is no anchor and the finding falls back to line 1.
    tree = _write_tree(tmp_path, ["scale"])
    (tree / "repro" / "sim" / "config.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n\n\n"
        "@dataclass(frozen=True)\n"
        "class SimConfig:\n"
        "    max_events: ClassVar[int] = 100\n"
        "    scale: float = 1.0\n"
    )
    findings = run_purity([str(tree)])
    [line] = [
        f.line for f in findings
        if f.rule_id == "SP402" and "SimConfig.max_events " in f.message
    ]
    assert line == 1


def test_sp402_needs_the_sim_core_in_scope(tmp_path):
    # Without sim/system.py in the scan, "never read" would be vacuous.
    lone = tmp_path / "module.py"
    lone.write_text("def run(cfg):\n    return cfg.scale\n")
    findings = run_purity([str(lone)])
    assert [f for f in findings if f.rule_id == "SP402"] == []


def test_getattr_string_constant_counts_as_a_read(tmp_path):
    tree = _write_tree(tmp_path, ["scale"])
    extra = tmp_path / "repro" / "sim" / "extra.py"
    extra.write_text('def peek(cfg):\n    return getattr(cfg, "max_events")\n')
    findings = run_purity([str(tree)])
    flagged = {f.message.split()[2] for f in findings if f.rule_id == "SP402"}
    assert "SimConfig.max_events" not in flagged


# ------------------------------------------------------ shipped tree is clean


def test_shipped_tree_is_purity_clean():
    findings = run_purity([str(SRC_ROOT)])
    assert findings == [], "\n".join(f.format() for f in findings)


# ------------------------------------------------------- dynamic confirmer


def test_mutated_value_covers_the_field_types():
    assert mutated_value(True) == [False]
    assert 7 in mutated_value(0)
    assert all(isinstance(v, float) for v in mutated_value(1.5))
    assert mutated_value("x")[0] == "xx"
    assert mutated_value(None)  # nullable fields get concrete candidates
    from repro.core.designs import DesignKind

    others = mutated_value(DesignKind.BASELINE)
    assert others and DesignKind.BASELINE not in others


def test_key_probes_pass_on_the_shipped_manifest():
    from repro.analysis.simpure import _key_probes
    from repro.cli import parse_design
    from repro.sim.config import SimConfig
    from repro.workloads.suite import get_app

    probes = _key_probes(
        get_app("P-2MM"), parse_design("Pr40"), SimConfig(scale=0.1)
    )
    bad = [p.format() for p in probes if not p.ok]
    assert bad == [], "\n".join(bad)
    kinds = {p.kind for p in probes}
    assert kinds == {"key-sensitivity", "key-neutrality"}
    # Every keyed + neutral field of every role got probed.
    import dataclasses

    from repro.core.designs import DesignSpec
    from repro.sim.config import GPUConfig
    from repro.workloads.profile import AppProfile

    field_count = sum(
        len(dataclasses.fields(cls))
        for cls in (AppProfile, DesignSpec, SimConfig, GPUConfig)
    )
    assert len(probes) == field_count - 1  # SimConfig.gpu covered field-wise


def test_confirm_purity_single_point_is_sound():
    from repro.analysis.simpure import confirm_purity

    report = confirm_purity(grid=[("P-2MM", "Pr40")], scale=0.05)
    assert report.ok, report.render()
    counts = report.counts()
    assert set(counts) == {
        "key-sensitivity", "key-neutrality", "fingerprint-invariance",
        "env-invariance", "roundtrip",
    }
    assert all(passed == total for passed, total in counts.values())
    assert "SOUND" in report.render()


def test_report_render_names_failures():
    from repro.analysis.simpure import PurityProbe, PurityReport

    report = PurityReport(grid=[("A", "B")], scale=0.1, probes=[
        PurityProbe("key-sensitivity", "SimConfig.scale", True),
        PurityProbe("env-invariance", "REPRO_X @ A/B", False, "cycles differ"),
    ])
    assert not report.ok
    text = report.render()
    assert "UNSOUND" in text
    assert "REPRO_X @ A/B" in text and "cycles differ" in text


# ------------------------------------------------------------------ CLI


def test_cli_purity_list_rules(capsys):
    from repro.cli import main

    assert main(["purity", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SP401" in out and "SP402" in out
    assert "SP403" not in out and "SP404" not in out and "SP405" not in out


def test_cli_purity_strict_on_shipped_tree(capsys):
    from repro.cli import main

    assert main(["purity", "--strict", str(SRC_ROOT)]) == 0


def test_cli_purity_flags_fixture(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "repro" / "sim" / "hot.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        'import os\n\ndef tick(self):\n    return os.getenv("REPRO_LIMIT")\n'
    )
    assert main(["purity", str(bad)]) == 1
    assert "SP401" in capsys.readouterr().out


def test_cli_purity_unknown_rule_is_usage_error(capsys):
    from repro.cli import main

    assert main(["purity", "--select", "SP999", "."]) == 2


def test_cli_purity_bad_grid_is_usage_error(capsys):
    from repro.cli import main

    assert main(["purity", "--confirm", "--grid", "nope"]) == 2


def test_cli_analyze_includes_simpure(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "clean.py").write_text("X = 1\n")
    assert main(["analyze", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "simpure" in out and "soundness" in out


def test_cli_analyze_json_artifact(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "repro" / "sim" / "hot.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        'import os\n\ndef tick(self):\n    return os.getenv("REPRO_LIMIT")\n'
    )
    assert main(["analyze", "--json", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)  # stdout is exactly one JSON document
    assert doc["exit_code"] == 1
    tools = {t["tool"]: t for t in doc["tools"]}
    assert set(tools) == {"simrace", "simpure"}
    assert tools["simpure"]["status"] == "fail"
    finding = tools["simpure"]["findings"][0]
    assert finding["rule"] == "SP401"
    assert finding["severity"] == "error"
    assert finding["line"] == 4


def test_cli_analyze_json_is_deterministic(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "clean.py").write_text("X = 1\n")
    assert main(["analyze", "--json", str(tmp_path)]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--json", str(tmp_path)]) == 0
    assert capsys.readouterr().out == first
