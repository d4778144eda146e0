"""Simulation results.

A :class:`SimResult` captures everything the paper's figures consume:
throughput (IPC), L1-level and L2 cache statistics, the replication
metrics, port/link utilizations, NoC flit-hop counts (for dynamic energy),
round-trip latency, and raw traffic counters.  Results are plain data —
they can be compared, normalized and tabulated without re-running the
simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Dict, List, Tuple

from repro.cache.cache import CacheStats

# Wall-clock observability fields: reported on results, never part of a
# run's identity (fingerprint/serialization/equality).
_OBSERVABILITY_FIELDS = ("wall_time_s", "events_per_s")

#: Public name for the observability exclusion list: the SimResult fields
#: that are *allowed* to differ between replays of the same configuration.
NON_IDENTITY_FIELDS = _OBSERVABILITY_FIELDS


def identity_manifest() -> Dict[str, Tuple[str, ...]]:
    """Declared identity domain of :class:`SimResult`, derived from the
    dataclass ``compare`` flags so it cannot drift from the class itself.

    Returns ``{"identity": (...), "non_identity": (...)}`` where
    ``identity`` fields participate in ``__eq__``/``fingerprint()``/
    ``to_jsonable()`` and ``non_identity`` fields are observation-only.
    ``TestObservabilityNeverTouchesIdentity`` in
    ``tests/test_prop_purity.py`` holds that split: changing only the
    ``non_identity`` fields leaves the fingerprint, equality and the
    serialized record unchanged.
    """
    identity = tuple(f.name for f in dc_fields(SimResult) if f.compare)
    non_identity = tuple(f.name for f in dc_fields(SimResult) if not f.compare)
    return {"identity": identity, "non_identity": non_identity}


@dataclass
class SimResult:
    """Outcome of one (application, design) simulation."""

    app: str = ""
    design: str = ""

    # Throughput
    cycles: float = 0.0
    instructions: int = 0

    # L1-level (private L1s or DC-L1s, aggregated)
    l1: CacheStats = field(default_factory=CacheStats)
    replication_ratio: float = 0.0
    mean_replicas: float = 0.0

    # L2 (aggregated over slices)
    l2: CacheStats = field(default_factory=CacheStats)

    # Utilizations (fractions of the run's cycles)
    l1_port_util_max: float = 0.0
    l1_port_util_mean: float = 0.0
    core_reply_link_util_max: float = 0.0
    dram_util_mean: float = 0.0

    # Traffic
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    bypasses: int = 0
    dram_accesses: int = 0
    dram_writebacks: int = 0
    # (flit_hops, link_mm, frequency_multiplier) per logical NoC
    noc_traffic: List[Tuple[int, float, float]] = field(default_factory=list)

    # Latency
    load_rtt_sum: float = 0.0
    load_rtt_count: int = 0

    # MSHR behaviour
    mshr_primary: int = 0
    mshr_secondary: int = 0
    mshr_stalls: int = 0
    # Finite-Q1 backpressure events (0 under the default infinite queues)
    node_queue_stalls: int = 0
    # Fills dropped by the streaming-bypass filter (0 unless l1_bypass)
    bypassed_fills: int = 0

    # Observability (host wall clock, filled in by GPUSystem.run).  These
    # are NOT part of the simulation's identity: they vary run to run, so
    # they are excluded from __eq__, fingerprint() and to_jsonable() —
    # cache entries written before/after this field existed stay
    # interchangeable and CACHE_SCHEMA_VERSION is unaffected.
    wall_time_s: float = field(default=0.0, compare=False)
    events_per_s: float = field(default=0.0, compare=False)

    # -- derived ----------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Instructions per cycle (the paper's throughput metric)."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate

    @property
    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate

    @property
    def load_rtt_mean(self) -> float:
        """Mean round trip (issue → data back) of load requests."""
        if self.load_rtt_count == 0:
            return 0.0
        return self.load_rtt_sum / self.load_rtt_count

    @property
    def total_requests(self) -> int:
        return self.loads + self.stores + self.atomics + self.bypasses

    @property
    def total_flit_hops(self) -> int:
        return sum(hops for hops, _mm, _f in self.noc_traffic)

    def speedup_vs(self, baseline: "SimResult") -> float:
        """IPC relative to a baseline run of the same application."""
        if baseline.app and self.app and baseline.app != self.app:
            raise ValueError(
                f"speedup across different apps: {self.app} vs {baseline.app}"
            )
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline IPC is zero")
        return self.ipc / baseline.ipc

    def miss_rate_vs(self, baseline: "SimResult") -> float:
        """L1 miss rate normalized to a baseline run (Fig. 4b/8a/16)."""
        if baseline.l1_miss_rate == 0:
            return 1.0 if self.l1_miss_rate == 0 else float("inf")
        return self.l1_miss_rate / baseline.l1_miss_rate

    def to_jsonable(self) -> List[object]:
        """Full lossless serialization (the persistent result cache).

        One positional record: the identity fields in dataclass order
        (``identity_manifest()["identity"]``), each :class:`CacheStats`
        as its counters in ``__slots__`` order and each ``noc_traffic``
        entry as a 3-element list.  The observability fields are left
        out.  Unlike :meth:`as_dict` (a flat human-facing summary), this
        round-trips *every* identity field: loading the output back
        through :meth:`from_jsonable` yields a result whose
        :meth:`fingerprint` is bit-identical to the original's.
        :data:`RECORD_LAYOUT` digests the field and slot names, so a
        reader can tell a record written under another layout.
        """
        record = [getattr(self, name) for name in _RECORD_FIELDS]
        record[_L1] = _stats_record(self.l1)
        record[_L2] = _stats_record(self.l2)
        record[_NOC] = [list(t) for t in self.noc_traffic]
        return record

    @classmethod
    def from_jsonable(cls, record: List[object]) -> "SimResult":
        """Inverse of :meth:`to_jsonable`.

        Raises unless the shape is exact: a list of one value per
        identity field, with every :class:`CacheStats` a list of all its
        counters and every ``noc_traffic`` entry a triple.  A missing or
        extra value is never filled in with a default (the persistent
        cache treats it as a miss, not a crash).
        """
        if type(record) is not list or len(record) != len(_RECORD_FIELDS):
            raise ValueError(
                f"a SimResult record is a list of {len(_RECORD_FIELDS)} values"
            )
        values = record[:]
        values[_L1] = _stats_from_record(record[_L1])
        values[_L2] = _stats_from_record(record[_L2])
        values[_NOC] = [(hops, mm, freq) for hops, mm, freq in record[_NOC]]
        # Positional: every identity field precedes the observability
        # fields in the class (tests/test_store.py pins the order).
        return cls(*values)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for tabulation/serialization."""
        return {
            "app": self.app,
            "design": self.design,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "l1_miss_rate": self.l1_miss_rate,
            "l2_miss_rate": self.l2_miss_rate,
            "replication_ratio": self.replication_ratio,
            "mean_replicas": self.mean_replicas,
            "l1_port_util_max": self.l1_port_util_max,
            "core_reply_link_util_max": self.core_reply_link_util_max,
            "load_rtt_mean": self.load_rtt_mean,
            "dram_accesses": self.dram_accesses,
            "total_flit_hops": self.total_flit_hops,
        }

    def fingerprint(self) -> Dict[str, object]:
        """Every scalar field, nested structures flattened to dotted keys.

        This is the *bit-exact* identity of a run (used by SimRace's
        ``--confirm`` replay diffing): two runs of the same config are the
        same simulation iff their fingerprints are equal — no tolerance,
        no rounding.
        """
        flat: Dict[str, object] = {}

        def walk(prefix: str, val: object) -> None:
            if isinstance(val, dict):
                for k in sorted(val):
                    walk(f"{prefix}.{k}" if prefix else str(k), val[k])
            elif isinstance(val, (list, tuple)):
                for i, v in enumerate(val):
                    walk(f"{prefix}[{i}]", v)
            elif hasattr(val, "__slots__"):
                # Plain accounting objects (CacheStats): flatten their
                # slots — comparing by object identity would hide drift.
                for slot in val.__slots__:
                    walk(f"{prefix}.{slot}", getattr(val, slot))
            else:
                flat[prefix] = val

        data = asdict(self)
        for name in _OBSERVABILITY_FIELDS:
            data.pop(name, None)
        walk("", data)
        return flat

    def fingerprint_sha256(self) -> str:
        """SHA-256 of the canonical JSON of :meth:`fingerprint`.

        A compact, baseline-friendly identity: equal hashes mean
        bit-identical fingerprints.  Used by the perf-baseline recorders.
        """
        blob = json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __str__(self) -> str:
        return (
            f"[{self.app} @ {self.design}] ipc={self.ipc:.3f} "
            f"l1_miss={self.l1_miss_rate:.1%} repl={self.replication_ratio:.1%} "
            f"cycles={self.cycles:.0f}"
        )


# -- the positional record of to_jsonable()/from_jsonable() ------------------

#: The record's fields, in order.
_RECORD_FIELDS = identity_manifest()["identity"]
_L1 = _RECORD_FIELDS.index("l1")
_L2 = _RECORD_FIELDS.index("l2")
_NOC = _RECORD_FIELDS.index("noc_traffic")
_STATS_SLOTS = CacheStats.__slots__

#: Short digest of the record layout: the identity field names in order
#: and the :class:`CacheStats` slot names.  The result cache stores it
#: beside each record, so an entry written before a field was added,
#: renamed or reordered reads as a miss instead of misdecoding.
RECORD_LAYOUT = hashlib.sha256(
    json.dumps([_RECORD_FIELDS, _STATS_SLOTS]).encode("utf-8")
).hexdigest()[:16]


def _stats_record(stats: CacheStats) -> List[int]:
    """One :class:`CacheStats` as its counters in ``__slots__`` order."""
    return [getattr(stats, slot) for slot in _STATS_SLOTS]


def _stats_from_record(counters: object) -> CacheStats:
    """Inverse of :func:`_stats_record`; raises unless every counter is
    there."""
    if type(counters) is not list or len(counters) != len(_STATS_SLOTS):
        raise ValueError(
            f"a CacheStats record is a list of {len(_STATS_SLOTS)} counters"
        )
    stats = CacheStats()
    for slot, value in zip(_STATS_SLOTS, counters):
        setattr(stats, slot, value)
    return stats
