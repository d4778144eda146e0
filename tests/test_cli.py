"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main, parse_design
from repro.core.designs import DesignKind


class TestParseDesign:
    def test_named_labels(self):
        assert parse_design("Baseline").kind == DesignKind.BASELINE
        assert parse_design("Pr40").label == "Pr40"
        assert parse_design("sh40+c10+boost").noc1_freq_mult == 2.0
        assert parse_design("CDXBar").kind == DesignKind.CDXBAR
        assert parse_design("SingleL1").kind == DesignKind.SINGLE_L1

    def test_constructor_strings(self):
        spec = parse_design("clustered:40:10:2")
        assert spec.num_dcl1 == 40
        assert spec.num_clusters == 10
        assert spec.noc1_freq_mult == 2.0
        assert parse_design("private:20").label == "Pr20"
        assert parse_design("shared:40").label == "Sh40"

    def test_unknown_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_design("mesh")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_design("clustered:40")  # missing Z


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "C-BLK", "--design", "Pr40", "--scale", "0.1"]
        )
        assert args.app == "C-BLK"
        assert args.design[0].label == "Pr40"
        assert args.scale == 0.1

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "Z-Nope"])

    def test_purity_args(self):
        args = build_parser().parse_args(
            ["purity", "--confirm", "--grid", "P-2MM/Pr40", "--scale", "0.1"]
        )
        assert args.confirm is True
        assert args.grid == ["P-2MM/Pr40"]
        assert args.scale == 0.1
        assert args.static is False

    def test_shard_args(self):
        args = build_parser().parse_args(
            ["shard", "--confirm", "--grid", "P-2MM/Pr40", "--scale", "0.1",
             "--jobs", "3"]
        )
        assert args.confirm is True
        assert args.grid == ["P-2MM/Pr40"]
        assert args.scale == 0.1
        assert args.jobs == 3
        assert args.static is False

    def test_heat_args(self):
        args = build_parser().parse_args(
            ["heat", "--confirm", "--grid", "P-2MM/Sh40+C10", "--scale", "0.1",
             "--no-alloc"]
        )
        assert args.confirm is True
        assert args.grid == ["P-2MM/Sh40+C10"]
        assert args.scale == 0.1
        assert args.no_alloc is True
        assert args.static is False

    def test_profile_json_and_alloc_flags(self):
        args = build_parser().parse_args(
            ["profile", "--app", "P-2MM", "--json", "--alloc"]
        )
        assert args.json is True and args.alloc is True
        plain = build_parser().parse_args(["profile", "--app", "P-2MM"])
        assert plain.json is False and plain.alloc is False

    def test_analyze_json_flag(self):
        args = build_parser().parse_args(["analyze", "--json", "src"])
        assert args.json is True
        assert build_parser().parse_args(["analyze", "src"]).json is False


class TestCommands:
    def test_figures_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "tab1" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "fig99"]) == 2

    def test_figures_analytical(self, capsys):
        assert main(["figures", "tab1", "--scale", "0.05"]) == 0
        assert "peak_bw" in capsys.readouterr().out

    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "C-BLK", "--design", "clustered:40:10:2", "--scale", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "Sh40+C10" in out

    def test_simulate_default_design(self, capsys):
        assert main(["simulate", "C-NN", "--scale", "0.05"]) == 0
        assert "Boost" in capsys.readouterr().out

    def test_sweep_runs(self, capsys):
        assert main(["sweep", "C-NN", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Pr40" in out and "Sh40+C10" in out

    def test_sweep_parallel_with_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["sweep", "C-NN", "--scale", "0.05", "--jobs", "2",
                "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        # Warm rerun: every point is served from the persistent cache and
        # the rendered table is identical.
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert any((tmp_path / "cache").rglob("*.json"))

    def test_no_cache_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["sweep", "C-NN", "--scale", "0.05", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "envcache").exists()

    @pytest.mark.parametrize("design, production", [
        ("Sh40", "fused"),    # fused twins, outranked by the profiler
        ("Pr40", "scalar"),   # scalar dispatch is production
    ])
    def test_profile_names_the_dispatch_tier(self, capsys, design, production):
        import json

        base = ["profile", "--app", "P-2MM", "--design", design,
                "--scale", "0.02"]
        assert main(base) == 0
        text = capsys.readouterr().out
        assert f"dispatch: {production}" in text
        if production == "fused":
            assert "taken on scalar dispatch" in text
        else:
            assert "taken on" not in text
        assert main(base + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["production_tier"] == production

    def test_figures_jobs_flag_parses(self):
        args = build_parser().parse_args(
            ["figures", "fig14", "--jobs", "4", "--cache-dir", "/tmp/x"])
        assert args.jobs == 4 and args.cache_dir == "/tmp/x"
        assert args.no_cache is False

    def test_python_dash_m_entry(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figures", "--list"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "fig14" in proc.stdout
