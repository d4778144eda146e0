"""Tests for the top-level public API surface."""

import importlib
import pkgutil

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        """Every name in every ``__all__`` under ``repro`` resolves."""
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"
        ]
        unresolved = [
            (module.__name__, name)
            for module in modules
            for name in getattr(module, "__all__", ())
            if getattr(module, name, None) is None
        ]
        assert unresolved == []

    def test_quickstart_flow(self, tiny_gpu):
        """The README's three-line quickstart, on a tiny platform."""
        from repro import DesignSpec, SimConfig, simulate, get_app

        cfg = SimConfig(gpu=tiny_gpu, scale=0.02)
        app = get_app("T-AlexNet")
        baseline = simulate(app, DesignSpec.baseline(), cfg)
        boosted = simulate(app, DesignSpec.clustered(8, 4, boost=2.0), cfg)
        assert baseline.ipc > 0 and boosted.ipc > 0

    def test_app_listing(self):
        assert len(repro.APP_NAMES) == 28
        assert len(repro.all_apps()) == 28
        assert len(repro.replication_sensitive_apps()) == 12
