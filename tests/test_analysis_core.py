"""The analyzer core (repro.analysis.core) and the one CLI driver behind
``repro race|purity`` and ``repro analyze``.

The expected ``repro analyze --json`` document (tests/data/
analyze_seeded.json) and the ``--list-rules`` tables below were recorded
from the per-tool command implementations this driver replaced; they
pin its output byte for byte.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.core import ModuleContext
from repro.analysis.simpure import purity_source
from repro.analysis.simrace import analyze_source
from repro.cli import _analyzers, main

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

REGISTRY = {tool.command: tool for tool in _analyzers()}
COMMANDS = list(REGISTRY)

#: One seeded defect per analyzer, plus the same defect on a line that
#: carries that analyzer's suppression marker.
SEEDED_TREE = {
    "race_seed.py": (
        "class Node:\n"
        "    def _dispatch(self, req):\n"
        "        t1 = self.topo.hop(self.engine.now, req.src)\n"
        "        self.engine.schedule(t1, self._push, req)\n"
        "        self.engine.schedule(t1, self._pop, req)\n"
        "\n"
        "    def _push(self, req):\n"
        "        self.queue.append(req.line)\n"
        "\n"
        "    def _pop(self, req):\n"
        "        self.queue.pop()\n"
        "\n"
        "\n"
        "class QuietNode:\n"
        "    def _dispatch(self, req):\n"
        "        t1 = self.topo.hop(self.engine.now, req.src)\n"
        "        self.engine.schedule(t1, self._push, req)  # simrace: disable=SR201\n"
        "        self.engine.schedule(t1, self._pop, req)\n"
        "\n"
        "    def _push(self, req):\n"
        "        self.queue.append(req.line)\n"
        "\n"
        "    def _pop(self, req):\n"
        "        self.queue.pop()\n"
    ),
    "repro/sim/knobs.py": (
        "import os\n"
        "\n"
        "\n"
        "def limit():\n"
        '    return os.getenv("REPRO_LIMIT")\n'
        "\n"
        "\n"
        "def quiet_limit():\n"
        '    return os.getenv("REPRO_LIMIT")  # simpure: disable=SP401\n'
    ),
}

#: Per command: the seeded file, its one rule, and the per-source API.
SEEDS = {
    "race": ("race_seed.py", "SR201", analyze_source),
    "purity": ("repro/sim/knobs.py", "SP401", purity_source),
}

#: Trees with warnings and no errors.
WARNING_TREES = {
    "race": {"w.py": (
        "class Node:\n"
        "    def _go(self, req):\n"
        "        t1 = self.topo.peek(req)\n"
        "        self.engine.schedule(t1, self._a, req)\n"
        "        self.engine.schedule(t1, self._b, req)\n"
        "\n"
        "    def _a(self, req):\n"
        "        return self.mshr.has_stalled()\n"
        "\n"
        "    def _b(self, req):\n"
        "        self.mshr.release(req.line)\n"
    )},
    "purity": {
        "repro/sim/config.py": (
            "class SimConfig:\n"
            "    scale: float = 1.0\n"
        ),
        "repro/sim/system.py": "def run(cfg):\n    return cfg.scale\n",
    },
}

LIST_RULES = {
    "race": (
        "SR201  error    same-cycle write/write conflict between "
        "co-scheduled handlers\n"
        "SR202  warning  same-cycle read/write conflict between "
        "co-scheduled handlers\n"
        "SR203  warning  now-scheduled handler writes state written by "
        "other handlers\n"
    ),
    "purity": (
        "SP401  error    sim-core read of an input that bypasses the cache "
        "key\n"
        "SP402  warning  keyed field is never read by the simulator "
        "(over-keying)\n"
    ),
}


def _write(root, tree):
    for rel, source in tree.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


@pytest.fixture
def seeded(tmp_path, monkeypatch):
    """The seeded tree at ``./seeded``, so reported paths are relative."""
    _write(tmp_path / "seeded", SEEDED_TREE)
    monkeypatch.chdir(tmp_path)
    return "seeded"


# ---------------------------------------------------------------- registry


def test_registry_is_the_analyze_row_order():
    assert [(t.name, t.command) for t in _analyzers()] == [
        ("simrace", "race"), ("simpure", "purity"),
    ]
    assert [t.command for t in _analyzers() if t.confirm] == [
        "race", "purity"]


def test_analyze_json_matches_the_recorded_document(seeded, capsys):
    assert main(["analyze", "--json", seeded]) == 1
    expected = (DATA / "analyze_seeded.json").read_text()
    assert capsys.readouterr().out == expected


def test_findings_sort_paths_as_strings(tmp_path, monkeypatch, capsys):
    # Path-part order would put a/z.py first ("a" < "a-b"); the one sort
    # compares whole path strings, where "-" sorts before "/".
    _write(tmp_path / "a" / "z", SEEDED_TREE)
    _write(tmp_path / "a-b" / "c", SEEDED_TREE)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--json", "a", "a-b"]) == 1
    for tool in json.loads(capsys.readouterr().out)["tools"]:
        paths = [f["path"] for f in tool["findings"]]
        assert len(paths) == 2 and paths == sorted(paths), tool["tool"]
        assert paths[0].startswith("a-b/c/"), tool["tool"]


# ------------------------------------------------ the shared command path


@pytest.mark.parametrize("command", COMMANDS)
def test_list_rules_prints_the_rule_table(command, capsys):
    assert main([command, "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert out == LIST_RULES[command]
    for rule in REGISTRY[command].rules:
        assert rule.rule_id in out


@pytest.mark.parametrize("command", COMMANDS)
def test_unknown_select_is_usage_error(command, seeded, capsys):
    assert main([command, "--select", "XX999", seeded]) == 2
    name = REGISTRY[command].name
    assert capsys.readouterr().err == (
        f"{name}: unknown rule(s) XX999 (see `repro {command} --list-rules`)\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_path_is_usage_error(command, seeded, capsys):
    assert main([command, seeded, "nope/missing.py"]) == 2
    name = REGISTRY[command].name
    assert capsys.readouterr().err == f"{name}: no such path: nope/missing.py\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_one_error_exits_1(command, seeded, capsys):
    rel, rule, _ = SEEDS[command]
    assert main([command, seeded]) == 1
    captured = capsys.readouterr()
    [line] = captured.out.splitlines()
    assert line.startswith(f"seeded/{rel}:") and f" error {rule}: " in line
    assert captured.err == f"{REGISTRY[command].name}: 1 error(s), 0 warning(s)\n"


@pytest.mark.parametrize("command", sorted(WARNING_TREES))
def test_warnings_exit_0_unless_strict(command, tmp_path, capsys):
    _write(tmp_path, WARNING_TREES[command])
    assert main([command, str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out and " error " not in out
    assert main([command, "--strict", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_rule_selection_ignores_case(command, seeded, capsys):
    rel, rule, source_api = SEEDS[command]
    tool = REGISTRY[command]
    upper = tool.run([seeded], select=[rule])
    assert len(upper) == 1
    assert tool.run([seeded], select=[rule.lower()]) == upper
    path = f"{seeded}/{rel}"
    source = Path(path).read_text()
    assert source_api(source, path, [rule.lower()]) == source_api(source, path, [rule])
    assert main([command, "--select", rule.lower(), seeded]) == 1
    lower = capsys.readouterr()
    assert main([command, "--select", rule, seeded]) == 1
    assert capsys.readouterr() == lower


@pytest.mark.parametrize("command", ["purity"])
@pytest.mark.parametrize("entry", ["nope", "P-2MM/Nope", "Nope/Pr40"])
def test_bad_grid_entry_is_usage_error(command, entry, capsys):
    assert main([command, "--confirm", "--grid", entry]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"{REGISTRY[command].name}: bad --grid entry {entry!r} (")


# -------------------------------------------------------------------- core


def test_suppression_is_per_marker_and_case_blind():
    source = (
        "a = 1  # simrace: disable=sr201\n"
        "b = 2  # simpure: disable=all\n"
        "c = 3  # simrace: disable=SR203  # simpure: disable=SP401, SP402\n"
    )
    ctx = ModuleContext("m.py", source, ast.parse(source), "simrace")
    assert ctx.suppressed("SR201", 1)
    assert not ctx.suppressed("SR202", 1)
    assert not ctx.suppressed("SR201", 2, 3, 99)
    assert ctx.suppressed("SR203", 3)
    pure = ModuleContext("m.py", source, ast.parse(source), "simpure")
    assert pure.suppressed("SP402", 3) and not pure.suppressed("SP401", 1)
    assert pure.suppressed("SP401", 2) and pure.suppressed("SP402", 2)


def test_simulator_import_loads_no_analyzer():
    code = (
        "import sys\n"
        "import repro.experiments.base, repro.sim.system, repro.cli\n"
        "repro.cli.build_parser()\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [m for m in proc.stdout.split()
              if m == "repro.analysis.core" or m.startswith("repro.analysis.sim")]
    assert loaded == []
