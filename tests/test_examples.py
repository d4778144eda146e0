"""Smoke tests: every example script runs end-to-end (tiny scales)."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "0.05")
        assert "Speedup:" in out
        assert "replication ratio" in out

    def test_design_space_sweep(self):
        out = run_example("design_space_sweep.py", "C-NN", "0.05")
        assert "Aggregation sweep" in out
        assert "Pr40" in out and "Sh40+C10" in out

    def test_workload_characterization(self):
        out = run_example("workload_characterization.py", "0.05")
        assert "Classification agreement" in out
        assert "T-AlexNet" in out

    def test_noc_explorer(self):
        out = run_example("noc_explorer.py")
        assert "80x32" in out
        assert "CDXBar" in out

    def test_custom_workload(self):
        out = run_example("custom_workload.py", "0.6", "0.0")
        assert "Sh40+C10+Boost" in out

    def test_paper_figures_cli(self):
        out = run_example("paper_figures.py", "tab1", "--scale", "0.05")
        assert "peak_bw" in out
        out = run_example("paper_figures.py", "--list")
        assert "fig14" in out

    def test_render_figures(self, tmp_path, monkeypatch):
        out = run_example("render_figures.py", "fig06")
        assert "fig06_private_area_power.svg" in out
        svg = (EXAMPLES.parent / "figures" / "fig06_private_area_power.svg")
        assert svg.exists()
        assert svg.read_text().startswith("<svg")
