"""Set-associative cache (functional model).

The cache tracks *which lines are resident* and full hit/miss statistics;
all timing (bank occupancy, access latency) is modelled by the reservation
servers in :mod:`repro.sim.system`, keeping this class purely functional
and independently testable.

The paper's (DC-)L1 policy is write-evict with no-write-allocate
(Section III): a store hit evicts the line (which is forwarded to L2), a
store miss allocates nothing.  That behaviour lives in
:meth:`SetAssociativeCache.access_store`; loads use
:meth:`SetAssociativeCache.access_load` + :meth:`SetAssociativeCache.install`.

A cache can be marked *perfect* (always hits) for the paper's perfect-L1
studies (Figure 4c), and its capacity can be scaled (the 16x study of
Figure 1) via the ``size_bytes`` argument.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.directory import ReplicationDirectory
from repro.cache.replacement import policy_factory


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class _LazySets(dict):
    """Set index -> replacement-policy object, built on first touch.

    A full system has thousands of cache sets (every L1 and L2 slice),
    most of which a short run never touches; building one policy object
    per set up front dominated system wiring.  ``__missing__`` keeps the
    ``sets[index]`` lookup shape of a list, so every call site (the
    fused L1 probe included) indexes it unchanged.  Only touched sets
    are present, so iterate ``.values()`` to visit resident lines.
    """

    __slots__ = ("_factory",)

    def __init__(self, factory) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, index: int):
        policy = self[index] = self._factory()
        return policy


class CacheStats:
    """Hit/miss accounting for one cache."""

    __slots__ = (
        "load_hits",
        "load_misses",
        "store_hits",
        "store_misses",
        "installs",
        "evictions",
        "write_evicts",
        "replicated_misses",
    )

    def __init__(self) -> None:
        self.load_hits = 0
        self.load_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.installs = 0
        self.evictions = 0
        self.write_evicts = 0
        # Misses whose line was resident in a *sibling* cache at miss time
        # (numerator of the paper's replication ratio).
        self.replicated_misses = 0

    @property
    def accesses(self) -> int:
        return self.load_hits + self.load_misses + self.store_hits + self.store_misses

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def hits(self) -> int:
        return self.load_hits + self.store_hits

    @property
    def miss_rate(self) -> float:
        """Overall miss rate; 0.0 when the cache saw no accesses."""
        n = self.accesses
        return self.misses / n if n else 0.0

    @property
    def load_miss_rate(self) -> float:
        n = self.load_hits + self.load_misses
        return self.load_misses / n if n else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters into this one."""
        self.load_hits += other.load_hits
        self.load_misses += other.load_misses
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.installs += other.installs
        self.evictions += other.evictions
        self.write_evicts += other.write_evicts
        self.replicated_misses += other.replicated_misses


class SetAssociativeCache:
    """A set-associative cache over line indices.

    Parameters
    ----------
    name:
        Identifier for error messages and reports.
    size_bytes / assoc / line_bytes:
        Geometry.  ``size_bytes`` must be a multiple of
        ``assoc * line_bytes`` and the resulting set count a power of two.
    policy:
        Replacement policy name (``"lru"`` or ``"fifo"``).
    cache_id:
        Index of this cache within its level (used by the directory).
    directory:
        Optional :class:`ReplicationDirectory` shared by all caches of the
        level; enables the replication-ratio and replica-count metrics.
    perfect:
        If True, every load/store hits and nothing is ever installed.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        policy: str = "lru",
        cache_id: int = 0,
        directory: Optional[ReplicationDirectory] = None,
        perfect: bool = False,
        index_divisor: int = 1,
    ):
        if assoc <= 0:
            raise ValueError(f"{name}: associativity must be positive")
        if not _is_pow2(line_bytes):
            raise ValueError(f"{name}: line size {line_bytes} must be a power of two")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not a multiple of assoc*line "
                f"({assoc}*{line_bytes})"
            )
        num_sets = size_bytes // (assoc * line_bytes)
        if not _is_pow2(num_sets):
            raise ValueError(f"{name}: set count {num_sets} must be a power of two")
        if index_divisor < 1:
            raise ValueError(f"{name}: index_divisor must be >= 1")

        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        # Address-sliced levels (home-interleaved DC-L1s, L2 slices) only
        # ever see lines congruent to their slice id; indexing sets with
        # ``line // index_divisor`` strips the slice-selection bits so the
        # whole cache is usable (as real sliced caches index above the
        # slice bits).
        self.index_divisor = index_divisor
        self.cache_id = cache_id
        self.directory = directory
        self.perfect = perfect
        self.policy_name = policy
        self._sets = _LazySets(policy_factory(policy))
        self.stats = CacheStats()
        # SimSanitizer hook: when a ResourceLedger is attached, installs
        # are checked against the set's associativity *at install time*
        # (continuous version of the post-run capacity audit).
        self.ledger = None

    # -- geometry ---------------------------------------------------------

    def set_index(self, line: int) -> int:
        """Cache set holding ``line`` (slice bits stripped, then masked)."""
        if self.index_divisor > 1:
            line //= self.index_divisor
        return line & self._set_mask

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets.values())

    # -- functional accesses ---------------------------------------------

    def contains(self, line: int) -> bool:
        """Presence probe with no side effects (no stats, no recency update)."""
        return line in self._sets[self.set_index(line)]

    def access_load(self, line: int) -> bool:
        """Probe for a load; returns True on hit.  Misses do NOT install —
        call :meth:`install` when the fill returns (mirroring Q4 in the
        paper's DC-L1 node)."""
        if self.perfect:
            self.stats.load_hits += 1
            return True
        s = self._sets[self.set_index(line)]
        if line in s:
            s.touch(line)
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        if self.directory is not None and self.directory.held_elsewhere(line, self.cache_id):
            self.stats.replicated_misses += 1
        return False

    def access_store(self, line: int) -> bool:
        """Write-evict / no-write-allocate store.  Returns True on hit
        (the line was resident and has been evicted toward L2)."""
        if self.perfect:
            self.stats.store_hits += 1
            return True
        s = self._sets[self.set_index(line)]
        if line in s:
            s.remove(line)
            self.stats.store_hits += 1
            self.stats.write_evicts += 1
            if self.directory is not None:
                self.directory.on_evict(line, self.cache_id)
            return True
        self.stats.store_misses += 1
        if self.directory is not None and self.directory.held_elsewhere(line, self.cache_id):
            self.stats.replicated_misses += 1
        return False

    def install(self, line: int) -> Optional[int]:
        """Install ``line`` (a returning fill); returns the victim line if
        one was evicted, else None.  Installing a line already present is a
        no-op (a racing fill merged at the MSHR level)."""
        if self.perfect:
            return None
        s = self._sets[self.set_index(line)]
        if line in s:
            s.touch(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim = s.evict()
            self.stats.evictions += 1
            if self.directory is not None:
                self.directory.on_evict(victim, self.cache_id)
        s.insert(line)
        self.stats.installs += 1
        if self.directory is not None:
            self.directory.on_install(line, self.cache_id)
        if self.ledger is not None and len(s) > self.assoc:
            self.ledger.violation(
                f"{self.name}: set {self.set_index(line)} holds {len(s)} lines "
                f"(> {self.assoc}-way) after installing {line:#x}"
            )
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True when it was resident."""
        s = self._sets[self.set_index(line)]
        if s.remove(line):
            if self.directory is not None:
                self.directory.on_evict(line, self.cache_id)
            return True
        return False

    def flush(self) -> int:
        """Invalidate everything; returns the number of lines dropped."""
        dropped = 0
        for s in self._sets.values():
            for line in list(s.lines()):
                if s.remove(line):
                    dropped += 1
                    if self.directory is not None:
                        self.directory.on_evict(line, self.cache_id)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.name!r}, {self.size_bytes}B, "
            f"{self.assoc}-way, sets={self.num_sets})"
        )
