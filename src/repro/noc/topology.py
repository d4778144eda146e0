"""NoC topologies for every design point.

The paper uses two separate physical networks (request and reply) to avoid
protocol deadlock (Section VII); we model each logical NoC as a pair of
crossbars — ``req`` (sources → destinations) and ``rep`` (destinations →
sources).

Topology per design:

* **Baseline / CDXBar** — the L1s are inside the cores, so there is no
  NoC#1; NoC#2 connects the 80 cores to the 32 L2 slices.  The baseline
  uses one 80x32 crossbar (+ reply twin); CDXBar replaces it with a
  two-stage hierarchical crossbar (Figure 19a's comparator): 10 first-stage
  8x8 crossbars (one per group of 8 cores) feeding 8 second-stage 10x4
  crossbars (one per L2 column).
* **DC-L1 family** — NoC#1 is one ``N x M`` crossbar per cluster (``N x 1``
  for PrY, 80x40 for Sh40); NoC#2 is either per-range ``Z x O`` crossbars
  (clustered, Figure 10) or a single ``Y x 32`` crossbar.
* **SingleL1** — Section II-A's hypothetical: NoC#1 is an 80x1 funnel whose
  DC-L1-side port has the *aggregate* baseline L1 bandwidth (the paper
  preserves total capacity and bandwidth in this thought experiment).

Service times are expressed in core cycles: at the baseline clock ratio
(1400 MHz core / 700 MHz NoC) one 32 B flit occupies a port for 2 core
cycles; frequency multipliers (``+Boost``) divide that.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.clusters import ClusterGeometry
from repro.core.designs import DesignKind, DesignSpec
from repro.noc.crossbar import Crossbar


class NoCTopology:
    """Instantiated crossbars + routing for one design point."""

    def __init__(
        self,
        spec: DesignSpec,
        num_cores: int,
        num_l2: int,
        cycles_per_flit: float,
        latency: float,
        geometry: Optional[ClusterGeometry] = None,
        cdxbar_group_size: int = 8,
        cdxbar_columns: int = 8,
        short_link_mm: float = 3.3,
        long_link_mm: float = 12.3,
    ):
        self.spec = spec
        self.num_cores = num_cores
        self.num_l2 = num_l2
        self.geometry = geometry
        self.cdxbar_group_size = cdxbar_group_size
        self.cdxbar_columns = cdxbar_columns

        s1 = cycles_per_flit / spec.noc1_freq_mult
        l1 = latency / spec.noc1_freq_mult
        s2 = cycles_per_flit / spec.noc2_freq_mult
        l2 = latency / spec.noc2_freq_mult

        self.noc1_req: List[Crossbar] = []
        self.noc1_rep: List[Crossbar] = []
        self.noc2_req: List[Crossbar] = []
        self.noc2_rep: List[Crossbar] = []
        # CDXBar second stage (first stage reuses the noc2 lists).
        self.cdx2_req: List[Crossbar] = []
        self.cdx2_rep: List[Crossbar] = []

        kind = spec.kind
        if kind == DesignKind.BASELINE:
            self.noc2_req = [Crossbar("noc2.req", num_cores, num_l2, s2, l2, long_link_mm)]
            self.noc2_rep = [Crossbar("noc2.rep", num_l2, num_cores, s2, l2, long_link_mm)]
        elif kind == DesignKind.CDXBAR:
            g, k = cdxbar_group_size, cdxbar_columns
            if num_cores % g or num_l2 % k:
                raise ValueError("CDXBar group/column sizes must divide cores/L2s")
            groups = num_cores // g
            per_col = num_l2 // k
            self.noc2_req = [
                Crossbar(f"cdx1.req[{i}]", g, k, s1, l1, short_link_mm) for i in range(groups)
            ]
            self.noc2_rep = [
                Crossbar(f"cdx1.rep[{i}]", k, g, s1, l1, short_link_mm) for i in range(groups)
            ]
            self.cdx2_req = [
                Crossbar(f"cdx2.req[{c}]", groups, per_col, s2, l2, long_link_mm)
                for c in range(k)
            ]
            self.cdx2_rep = [
                Crossbar(f"cdx2.rep[{c}]", per_col, groups, s2, l2, long_link_mm)
                for c in range(k)
            ]
        else:
            if geometry is None:
                raise ValueError(f"{spec} requires a ClusterGeometry")
            n, m, z = geometry.cores_per_cluster, geometry.dcl1_per_cluster, geometry.num_clusters
            if kind == DesignKind.SINGLE_L1:
                # One funnel crossbar with aggregate-preserving node-side port.
                agg = 1.0 / num_cores
                xb_req = Crossbar("noc1.req[0]", n, m, s1, l1, short_link_mm)
                xb_rep = Crossbar("noc1.rep[0]", m, n, s1, l1, short_link_mm)
                xb_req.out_ports[0].service = s1 * agg
                xb_rep.in_ports[0].service = s1 * agg
                self.noc1_req = [xb_req]
                self.noc1_rep = [xb_rep]
            else:
                self.noc1_req = [
                    Crossbar(f"noc1.req[{i}]", n, m, s1, l1, short_link_mm) for i in range(z)
                ]
                self.noc1_rep = [
                    Crossbar(f"noc1.rep[{i}]", m, n, s1, l1, short_link_mm) for i in range(z)
                ]
            if geometry.noc2_partitioned:
                o = geometry.l2_per_range
                self.noc2_req = [
                    Crossbar(f"noc2.req[r{r}]", z, o, s2, l2, long_link_mm) for r in range(m)
                ]
                self.noc2_rep = [
                    Crossbar(f"noc2.rep[r{r}]", o, z, s2, l2, long_link_mm) for r in range(m)
                ]
            else:
                y = geometry.num_dcl1
                mult = num_cores if kind == DesignKind.SINGLE_L1 else 1
                self.noc2_req = [Crossbar("noc2.req", y, num_l2, s2, l2, long_link_mm)]
                self.noc2_rep = [Crossbar("noc2.rep", num_l2, y, s2, l2, long_link_mm)]
                if mult > 1:
                    # The single node's NoC#2 ports carry all misses; scale
                    # them to the aggregate-preserving assumption.
                    for p in self.noc2_req[0].in_ports:
                        p.service = s2 / mult
                    for p in self.noc2_rep[0].out_ports:
                        p.service = s2 / mult

    # -- NoC#1 routing (cores <-> DC-L1 nodes) --------------------------------

    def core_to_dcl1(self, now: float, core_id: int, dcl1_id: int, flits: int) -> float:
        """Request traversal on NoC#1; returns arrival time at the node."""
        geo = self.geometry
        z = geo.cluster_of_core(core_id) if len(self.noc1_req) > 1 else 0
        xb = self.noc1_req[z]
        return xb.traverse(
            now, core_id % geo.cores_per_cluster, dcl1_id % geo.dcl1_per_cluster, flits
        )

    def dcl1_to_core(self, now: float, dcl1_id: int, core_id: int, flits: int) -> float:
        """Reply traversal on NoC#1; returns arrival time at the core."""
        geo = self.geometry
        z = geo.cluster_of_core(core_id) if len(self.noc1_rep) > 1 else 0
        xb = self.noc1_rep[z]
        return xb.traverse(
            now, dcl1_id % geo.dcl1_per_cluster, core_id % geo.cores_per_cluster, flits
        )

    # -- NoC#2 routing (L1 level <-> L2 slices) --------------------------------

    def to_l2(self, now: float, src: int, l2_slice: int, flits: int) -> float:
        """Request traversal on NoC#2.

        ``src`` is a DC-L1 node id for decoupled designs, a core id for
        BASELINE/CDXBAR.
        """
        if self.spec.kind == DesignKind.CDXBAR:
            g = src // self.cdxbar_group_size
            col = l2_slice % self.cdxbar_columns
            t = self.noc2_req[g].traverse(now, src % self.cdxbar_group_size, col, flits)
            return self.cdx2_req[col].traverse(t, g, l2_slice // self.cdxbar_columns, flits)
        geo = self.geometry
        if geo is not None and geo.noc2_partitioned:
            r = geo.dcl1_range_of(src)
            xb = self.noc2_req[r]
            return xb.traverse(now, geo.cluster_of_dcl1(src), l2_slice // geo.dcl1_per_cluster, flits)
        return self.noc2_req[0].traverse(now, src, l2_slice, flits)

    def from_l2(self, now: float, l2_slice: int, dst: int, flits: int) -> float:
        """Reply traversal on NoC#2 back to ``dst`` (node or core)."""
        if self.spec.kind == DesignKind.CDXBAR:
            g = dst // self.cdxbar_group_size
            col = l2_slice % self.cdxbar_columns
            t = self.cdx2_rep[col].traverse(now, l2_slice // self.cdxbar_columns, g, flits)
            return self.noc2_rep[g].traverse(t, col, dst % self.cdxbar_group_size, flits)
        geo = self.geometry
        if geo is not None and geo.noc2_partitioned:
            r = geo.dcl1_range_of(dst)
            xb = self.noc2_rep[r]
            return xb.traverse(now, l2_slice // geo.dcl1_per_cluster, geo.cluster_of_dcl1(dst), flits)
        return self.noc2_rep[0].traverse(now, l2_slice, dst, flits)

    # -- prebound fast routes ----------------------------------------------------

    def make_fast_routes(self):
        """Build uninstrumented route closures, resolved once per design.

        Returns ``(core_to_dcl1, dcl1_to_core, to_l2, from_l2)`` where each
        entry is a callable with the same signature as the corresponding
        method, or ``None`` when the design has no such hop (NoC#1 entries
        for BASELINE/CDXBAR).  The closures hoist every per-design decision
        the methods re-derive per call — which crossbar list, which port
        arithmetic — into captured locals, and route through
        :meth:`Crossbar.traverse_fast <repro.noc.crossbar.Crossbar.traverse_fast>`
        (no ledger validation), so they are only selected at wiring time
        when no sanitizer is attached.  Timing results are identical to
        the plain methods by construction.
        """
        geo = self.geometry
        core_to_dcl1 = dcl1_to_core = None
        if self.noc1_req:
            n, m = geo.cores_per_cluster, geo.dcl1_per_cluster
            if len(self.noc1_req) > 1:
                req_xbs, rep_xbs = self.noc1_req, self.noc1_rep

                def core_to_dcl1(now, core_id, dcl1_id, flits):
                    return req_xbs[core_id // n].traverse_fast(
                        now, core_id % n, dcl1_id % m, flits
                    )

                def dcl1_to_core(now, dcl1_id, core_id, flits):
                    return rep_xbs[core_id // n].traverse_fast(
                        now, dcl1_id % m, core_id % n, flits
                    )
            else:
                req_xb, rep_xb = self.noc1_req[0], self.noc1_rep[0]

                def core_to_dcl1(now, core_id, dcl1_id, flits):
                    return req_xb.traverse_fast(now, core_id % n, dcl1_id % m, flits)

                def dcl1_to_core(now, dcl1_id, core_id, flits):
                    return rep_xb.traverse_fast(now, dcl1_id % m, core_id % n, flits)

        if self.spec.kind == DesignKind.CDXBAR:
            g_size, cols = self.cdxbar_group_size, self.cdxbar_columns
            stage1_req, stage2_req = self.noc2_req, self.cdx2_req
            stage1_rep, stage2_rep = self.noc2_rep, self.cdx2_rep

            def to_l2(now, src, l2_slice, flits):
                g = src // g_size
                col = l2_slice % cols
                t = stage1_req[g].traverse_fast(now, src % g_size, col, flits)
                return stage2_req[col].traverse_fast(t, g, l2_slice // cols, flits)

            def from_l2(now, l2_slice, dst, flits):
                g = dst // g_size
                col = l2_slice % cols
                t = stage2_rep[col].traverse_fast(now, l2_slice // cols, g, flits)
                return stage1_rep[g].traverse_fast(t, col, dst % g_size, flits)
        elif geo is not None and geo.noc2_partitioned:
            m2 = geo.dcl1_per_cluster
            req_ranges, rep_ranges = self.noc2_req, self.noc2_rep

            def to_l2(now, src, l2_slice, flits):
                return req_ranges[src % m2].traverse_fast(
                    now, src // m2, l2_slice // m2, flits
                )

            def from_l2(now, l2_slice, dst, flits):
                return rep_ranges[dst % m2].traverse_fast(
                    now, l2_slice // m2, dst // m2, flits
                )
        else:
            noc2_req_xb, noc2_rep_xb = self.noc2_req[0], self.noc2_rep[0]

            def to_l2(now, src, l2_slice, flits):
                return noc2_req_xb.traverse_fast(now, src, l2_slice, flits)

            def from_l2(now, l2_slice, dst, flits):
                return noc2_rep_xb.traverse_fast(now, l2_slice, dst, flits)

        return core_to_dcl1, dcl1_to_core, to_l2, from_l2

    # -- metrics ----------------------------------------------------------------

    def all_crossbars(self) -> List[Crossbar]:
        return (
            self.noc1_req + self.noc1_rep + self.noc2_req + self.noc2_rep
            + self.cdx2_req + self.cdx2_rep
        )

    def total_flit_hops(self) -> int:
        """Total flit-port-traversals across all crossbars (dynamic energy)."""
        return sum(xb.flit_hops for xb in self.all_crossbars())

    def max_core_reply_link_utilization(self, cycles: float) -> float:
        """Max utilization of links delivering data *to* cores (Fig. 2)."""
        if self.noc1_rep:
            return max(xb.max_out_utilization(cycles) for xb in self.noc1_rep)
        return max(xb.max_out_utilization(cycles) for xb in self.noc2_rep)


def build_topology(spec: DesignSpec, num_cores: int, num_l2: int,
                   cycles_per_flit: float, latency: float,
                   geometry: Optional[ClusterGeometry] = None,
                   **kwargs) -> NoCTopology:
    """Convenience constructor mirroring :class:`NoCTopology`."""
    return NoCTopology(
        spec, num_cores, num_l2, cycles_per_flit, latency, geometry, **kwargs
    )
