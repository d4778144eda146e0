"""Platform and simulation configuration (the paper's Table II).

:class:`GPUConfig` captures the simulated hardware platform — the 80-core
baseline with per-core 16 KB L1s, 32 address-sliced L2 banks, 16 memory
channels, and a 700 MHz 32 B-flit crossbar NoC under a 1400 MHz core
clock.  All times in the simulator are **core cycles**; the NoC clock
ratio appears as ``noc_cycles_per_flit = 2.0`` (one flit occupies a port
for two core cycles), which frequency multipliers divide.

:class:`SimConfig` bundles a platform with run parameters (workload scale,
CTA scheduler, ablation knobs, observability toggles).  The environment
variables ``REPRO_SANITIZE`` / ``REPRO_WATCHDOG`` are resolved **once**,
here at construction time (:func:`sanitize_env_enabled` /
:func:`watchdog_env_enabled`) — never inside the simulator core — so
every behavioural input of a run is visible in its config object.

The paper's Section VIII-A system-size study (120 cores / 60 DC-L1s /
48 L2 slices / 24 channels) is :meth:`GPUConfig.scaled_up`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, FrozenSet, Optional


def watchdog_env_enabled() -> bool:
    """Resolve the ``REPRO_WATCHDOG`` environment variable **once**, at
    :class:`SimConfig` construction (any value other than empty or ``0``
    enables the stall watchdog).

    This is a *declared input resolver* (SimPure SP401): the simulator
    core never reads the environment at run time — the value is frozen
    into ``SimConfig.watchdog``, which is declared fingerprint-neutral
    (watchdog-on runs are bit-identical to watchdog-off runs).  An
    explicit ``SimConfig(watchdog=...)`` always beats the environment.
    """
    return os.environ.get("REPRO_WATCHDOG", "") not in ("", "0")


def sanitize_env_enabled() -> bool:
    """Resolve the ``REPRO_SANITIZE`` environment variable once, at
    :class:`SimConfig` construction — the sanitizer twin of
    :func:`watchdog_env_enabled`, with the same declared-input and
    fingerprint-neutrality contract."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@dataclass(frozen=True)
class GPUConfig:
    """Hardware platform parameters (Table II plus timing details)."""

    # Topology
    num_cores: int = 80
    num_l2_slices: int = 32
    num_channels: int = 16

    # L1 (per core, baseline)
    l1_size_bytes: int = 16 * 1024
    l1_assoc: int = 4
    line_bytes: int = 128
    l1_latency: float = 28.0
    l1_mshr_entries: int = 32
    # Added DC-L1 access latency per capacity doubling (the paper's Sh40+C10
    # DC-L1 is 2x the baseline L1 and takes 30 vs 28 cycles).
    l1_latency_per_doubling: float = 2.0

    # L2 (per slice)
    l2_slice_bytes: int = 128 * 1024
    l2_assoc: int = 8
    l2_latency: float = 120.0
    l2_service: float = 2.0
    l2_mshr_entries: int = 64

    # DRAM
    dram_service: float = 16.0
    dram_latency: float = 220.0
    dram_bank_groups: int = 4

    # NoC (baseline 700 MHz vs 1400 MHz core; 32 B flits)
    flit_bytes: int = 32
    noc_cycles_per_flit: float = 2.0
    noc_latency: float = 16.0
    # Link lengths for the dynamic-energy model (Section VIII estimates).
    short_link_mm: float = 3.3
    long_link_mm: float = 12.3

    # CDXBar comparator geometry (Figure 19a)
    cdxbar_group_size: int = 8
    cdxbar_columns: int = 8

    def __post_init__(self):
        if self.num_cores <= 0 or self.num_l2_slices <= 0 or self.num_channels <= 0:
            raise ValueError("core/L2/channel counts must be positive")
        if self.num_l2_slices % self.num_channels != 0:
            raise ValueError("channels must evenly divide L2 slices")

    # -- derived -----------------------------------------------------------

    @property
    def total_l1_bytes(self) -> int:
        """Aggregate L1 capacity, preserved across every DC-L1 design."""
        return self.l1_size_bytes * self.num_cores

    @property
    def l1_lines(self) -> int:
        """Lines per baseline L1."""
        return self.l1_size_bytes // self.line_bytes

    def dcl1_size_bytes(self, num_dcl1: int, size_mult: float = 1.0) -> int:
        """Per-node DC-L1 capacity: total L1 budget split over the nodes,
        rounded to a valid power-of-two set count."""
        raw = self.total_l1_bytes * size_mult / num_dcl1
        unit = self.l1_assoc * self.line_bytes
        sets = max(1, int(raw / unit))
        sets = 2 ** int(round(math.log2(sets)))
        return sets * unit

    def l1_level_latency(self, size_bytes: int) -> float:
        """Access latency of an L1-level cache of ``size_bytes``: baseline
        latency plus ``l1_latency_per_doubling`` per capacity doubling."""
        if size_bytes <= self.l1_size_bytes:
            return self.l1_latency
        doublings = math.log2(size_bytes / self.l1_size_bytes)
        return self.l1_latency + self.l1_latency_per_doubling * doublings

    def scaled_up(self, factor: float = 1.5) -> "GPUConfig":
        """The Section VIII-A larger system (default: 120 cores, 48 L2
        slices, 24 channels)."""
        return replace(
            self,
            num_cores=int(self.num_cores * factor),
            num_l2_slices=int(self.num_l2_slices * factor),
            num_channels=int(self.num_channels * factor),
        )


@dataclass(frozen=True)
class SimConfig:
    """A platform plus run parameters.

    Every field participates in :func:`repro.sim.store.sim_cache_key`
    **except** the ones named in :data:`FINGERPRINT_NEUTRAL_FIELDS`:
    observation-only knobs (sanitizer ledger, stall watchdog) that are
    proven never to change a single result bit, so keying them would only
    fragment the shared result cache.  SimPure (``repro purity``) checks
    the declaration both ways: statically (SP401/SP402) and dynamically
    (``--confirm`` mutates each neutral field and asserts bit-exact
    fingerprint invariance).

    The simulation itself is fully deterministic given the workload (the
    trace RNG is seeded from :attr:`AppProfile.name` /
    :attr:`AppProfile.trace_variant`); there is deliberately no free
    run-level RNG seed here — an earlier ``seed`` field was never read by
    the sim core and only split the cache (the SP402 over-keying bug
    class).
    """

    #: Fields excluded from the cache key: observation-only, bit-identical
    #: by contract (enforced by tests/test_watchdog.py, tests/test_simturbo.py
    #: and ``repro purity --confirm``).  ``race_check``/``race_seed`` stay
    #: keyed on purpose: shadow-shuffle deliberately perturbs event order,
    #: and conflating shuffled with FIFO entries would mask the very
    #: hazards SimRace exists to find.
    FINGERPRINT_NEUTRAL_FIELDS: ClassVar[FrozenSet[str]] = frozenset({
        "sanitize",
        "watchdog",
    })

    gpu: GPUConfig = field(default_factory=GPUConfig)
    # Workload scale: multiplies CTA counts (1.0 = benchmark scale).
    scale: float = 1.0
    cta_scheduler: str = "round_robin"
    # Override the L1/DC-L1 access latency (Figure 19b sweep); None = model.
    l1_latency_override: Optional[float] = None

    # ---- ablation knobs (Section 6 of DESIGN.md) ----
    # Home-DC-L1 selection: "interleave" (default, works for any M) or
    # "bits" (explicit home-bit extraction; power-of-two M only).
    home_strategy: str = "interleave"
    # Bit position of the home bits above the line offset ("bits" strategy).
    home_bit_shift: int = 0
    # Send full 128 B lines on NoC#1 replies instead of only the requested
    # data (the paper argues this wastes NoC#1 bandwidth, Section III).
    full_line_noc1_replies: bool = False
    # Replacement policies per level.
    l1_policy: str = "lru"
    l2_policy: str = "lru"
    # Adaptive streaming bypass at the (DC-)L1 fills — the complementary
    # per-cache capacity-management extension the paper's related work
    # points at (see repro.cache.bypass).
    l1_bypass: bool = False
    # Finite DC-L1 node request-queue depth (the paper's Q1 holds four
    # entries).  None = infinite (the default first-order model: queueing
    # is carried by reservation delays); an int enables credit-based
    # backpressure — cores stall when a node's queue is full, which
    # sharpens camping hotspots.
    dcl1_queue_depth: Optional[int] = None

    # Enable the SimSanitizer resource ledger: continuous leak /
    # double-free / schedule-after-drain checking with per-request
    # attribution (see repro.analysis.sanitizer and docs/analysis.md).
    # Defaults from REPRO_SANITIZE, resolved once at construction — an
    # explicit sanitize= argument always beats the environment, and the
    # sim core never consults os.environ at run time (SimPure SP401).
    sanitize: bool = field(default_factory=sanitize_env_enabled)

    # Enable the stall watchdog (see repro.sim.watchdog and
    # docs/analysis.md): diagnose a wedged/livelocked run with a
    # SimStallError carrying a resource wait-graph dump instead of an
    # opaque hang or count mismatch.  Implies the sanitizer ledger (for
    # holder attribution); observation-only — results stay bit-identical.
    # Defaults from REPRO_WATCHDOG, resolved once at construction (same
    # declared-input contract as ``sanitize`` above).
    watchdog: bool = field(default_factory=watchdog_env_enabled)

    # SimRace shadow-shuffle mode (see repro.analysis.simrace and
    # docs/analysis.md): deterministically permute same-cycle handler
    # blocks in the event engine under ``race_seed``.  A run whose results
    # change under shuffle depends on accidental schedule() call order —
    # a same-cycle ordering hazard.  ``repro race --confirm`` replays a
    # config across K seeds and diffs the result fingerprints.
    race_check: bool = False
    race_seed: int = 1

    max_events: int = 200_000_000
