"""Home DC-L1 selection.

Under a shared (or clustered shared) DC-L1 organization, every cache line
has exactly one *home* DC-L1 per cluster, selected from the physical
address (Section V-A).  The address range is interleaved across the ``M``
DC-L1s of a cluster at line granularity, aligned with the L2 slice
interleaving so the clustered NoC#2 invariant holds: the home of range
``r`` only ever talks to the L2 slices whose index is congruent to ``r``
modulo ``M`` (Figure 10's per-range crossbars).

Two selection strategies are provided:

* ``"interleave"`` (default) — ``range = line mod M``.  Works for any
  ``M`` including the paper's non-power-of-two Sh40 (``M = 40``), and is
  exactly the bit-selection scheme when ``M`` is a power of two.
* ``"bits"`` — explicit home-bit extraction ``(line >> shift) & (M-1)``;
  requires power-of-two ``M``.  Exposed for the home-bit-position ablation.
"""

from __future__ import annotations

from typing import Callable

from repro.core.clusters import ClusterGeometry


class HomeMapper:
    """Maps (core, line) to the DC-L1 node that may cache the line."""

    def __init__(self, geometry: ClusterGeometry, strategy: str = "interleave", bit_shift: int = 0):
        if strategy not in ("interleave", "bits"):
            raise ValueError(f"unknown home strategy {strategy!r}")
        m = geometry.dcl1_per_cluster
        if strategy == "bits" and (m & (m - 1)) != 0:
            raise ValueError(f"'bits' home selection requires power-of-two M, got {m}")
        self.geometry = geometry
        self.strategy = strategy
        self.bit_shift = bit_shift
        self._m = m
        self._n = geometry.cores_per_cluster

    def range_of_line(self, line: int) -> int:
        """Address range r in [0, M) of a cache line."""
        if self._m == 1:
            return 0
        if self.strategy == "bits":
            return (line >> self.bit_shift) & (self._m - 1)
        return line % self._m

    def home_of(self, core_id: int, line: int) -> int:
        """The DC-L1 node a request from ``core_id`` for ``line`` targets.

        The cluster comes from the issuing core; the range from the line.
        For private designs (M = 1) this degenerates to "the core group's
        own DC-L1", and for fully shared designs (Z = 1) the cluster term
        vanishes — both exactly as in the paper.
        """
        cluster = core_id // self._n
        return cluster * self._m + self.range_of_line(line)

    def make_fast_home_of(self) -> Callable[[int, int], int]:
        """Build a closure equivalent to :meth:`home_of` with the strategy
        branch and the ``M``/``N`` lookups resolved once (hot-path route
        pre-binding; ``home_of`` runs once per issued request)."""
        m, n = self._m, self._n
        if m == 1:
            def home_of(core_id: int, line: int) -> int:
                return core_id // n
        elif self.strategy == "bits":
            shift, mask = self.bit_shift, m - 1

            def home_of(core_id: int, line: int) -> int:
                return (core_id // n) * m + ((line >> shift) & mask)
        else:
            def home_of(core_id: int, line: int) -> int:
                return (core_id // n) * m + line % m
        return home_of

    def homes_of_line(self, line: int):
        """All DC-L1 nodes across clusters that may hold ``line``."""
        r = self.range_of_line(line)
        m = self._m
        return [z * m + r for z in range(self.geometry.num_clusters)]
