"""Metrics, classification and tabulation helpers for the experiments,
the SimSanitizer resource ledger (:mod:`repro.analysis.sanitizer`), and
the two static analyzers: SimRace (:mod:`repro.analysis.simrace`) and
SimPure (:mod:`repro.analysis.simpure`), built on the shared plumbing in
:mod:`repro.analysis.core`.

The analyzers are imported from their submodules and are not re-exported
here: the simulator imports this package, and no simulation needs them.
See ``docs/analysis.md``."""

from repro.analysis.classify import CharacterizationRow, classify, is_replication_sensitive
from repro.analysis.metrics import amean, geomean, normalize, s_curve
from repro.analysis.sanitizer import ResourceLedger, SanitizerError
from repro.analysis.tables import format_table, percent, ratio

__all__ = [
    "CharacterizationRow",
    "classify",
    "is_replication_sensitive",
    "amean",
    "geomean",
    "normalize",
    "s_curve",
    "format_table",
    "percent",
    "ratio",
    "ResourceLedger",
    "SanitizerError",
]
