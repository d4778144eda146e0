"""Per-request timeline tracing.

For debugging and for latency breakdowns beyond the mean (the paper's
Section VIII latency analysis), the system can record a sampled timeline
of every Nth load: issue time, completion time, hit level and route.
Tracing is off by default (zero overhead); enable it by attaching a
:class:`RequestTrace` to a built :class:`~repro.sim.system.GPUSystem`
before ``run()``::

    system = GPUSystem(app, spec, cfg)
    trace = RequestTrace.attach(system, sample_every=16)
    system.run()
    trace.percentiles([0.5, 0.99])

The trace wraps the system's ``_complete`` callback, so it needs no
simulator support and composes with every design.  Attaching moves the
system onto scalar dispatch (``force_scalar_dispatch``): the fused
handlers schedule completions straight into the engine and would bypass
the wrapper.  Scalar and fused dispatch give bit-identical results.
"""

from __future__ import annotations

import csv
import math
import pathlib
from typing import Dict, List, Sequence

from repro.gpu.request import AccessKind


class TraceRecord:
    """One sampled request's lifetime."""

    __slots__ = ("core_id", "line", "kind", "issue_time", "complete_time",
                 "l1_hit", "l2_hit", "dcl1_id")

    def __init__(self, req, complete_time: float):
        self.core_id = req.core_id
        self.line = req.line
        self.kind = int(req.kind)
        self.issue_time = req.issue_time
        self.complete_time = complete_time
        self.l1_hit = req.l1_hit
        self.l2_hit = req.l2_hit
        self.dcl1_id = req.dcl1_id

    @property
    def latency(self) -> float:
        return self.complete_time - self.issue_time

    @property
    def served_at(self) -> str:
        """Which level supplied the data."""
        if self.l1_hit:
            return "L1"
        if self.l2_hit:
            return "L2"
        return "DRAM"


class RequestTrace:
    """Sampled request-completion log for one simulation."""

    def __init__(self, sample_every: int = 1, kinds: Sequence[int] = (AccessKind.LOAD,)):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.kinds = {int(k) for k in kinds}
        self.records: List[TraceRecord] = []
        self._seen = 0

    @classmethod
    def attach(cls, system, sample_every: int = 1,
               kinds: Sequence[int] = (AccessKind.LOAD,)) -> "RequestTrace":
        """Hook a new trace into ``system`` (before ``run()``)."""
        trace = cls(sample_every, kinds)
        system.force_scalar_dispatch()
        original = system._complete

        def traced_complete(req):
            trace.observe(req, system.engine.now)
            original(req)

        system._complete = traced_complete
        return trace

    def observe(self, req, now: float) -> None:
        if int(req.kind) not in self.kinds:
            return
        self._seen += 1
        if self._seen % self.sample_every == 0:
            self.records.append(TraceRecord(req, now))

    # -- analysis ---------------------------------------------------------

    def latencies(self) -> List[float]:
        return [r.latency for r in self.records]

    def percentiles(self, fractions: Sequence[float]) -> Dict[float, float]:
        """Latency percentiles (nearest-rank) over the sampled records."""
        lats = sorted(self.latencies())
        if not lats:
            raise ValueError("no records traced")
        out = {}
        for f in fractions:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"percentile {f} out of [0,1]")
            idx = min(len(lats) - 1, max(0, math.ceil(f * len(lats)) - 1))
            out[f] = lats[idx]
        return out

    def served_at_counts(self) -> Dict[str, int]:
        """How many sampled requests were served at each level."""
        out = {"L1": 0, "L2": 0, "DRAM": 0}
        for r in self.records:
            out[r.served_at] += 1
        return out

    def to_csv(self, path) -> pathlib.Path:
        """Dump the sampled records for external analysis."""
        path = pathlib.Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["core", "line", "kind", "issue", "complete", "latency", "served_at"]
            )
            for r in self.records:
                writer.writerow(
                    [r.core_id, r.line, r.kind, f"{r.issue_time:.1f}",
                     f"{r.complete_time:.1f}", f"{r.latency:.1f}", r.served_at]
                )
        return path

    def __len__(self) -> int:
        return len(self.records)
