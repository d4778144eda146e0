"""Crossbar timing model.

A crossbar has ``num_in`` input ports and ``num_out`` output ports, each a
reservation :class:`~repro.sim.resources.Server`.  A packet of ``flits``
flits traversing ``(in_port, out_port)`` serializes on both ports (input
buffering, then switch traversal), then emerges after the crossbar's
pipeline latency.  Per-flit service time encodes the NoC clock relative to
the core clock: at the paper's baseline (core 1400 MHz, NoC 700 MHz) one
flit costs two core cycles per port; the ``+Boost`` design halves that on
NoC#1 by doubling the crossbar frequency (Section VI-C).

Flit-hop counts are accumulated per crossbar for the dynamic-energy model
(Figure 18a).
"""

from __future__ import annotations

from repro.sim.resources import ServerGroup


class Crossbar:
    """Timing model of one ``num_in x num_out`` crossbar."""

    def __init__(
        self,
        name: str,
        num_in: int,
        num_out: int,
        cycles_per_flit: float,
        latency: float,
        link_mm: float = 1.0,
    ):
        if num_in <= 0 or num_out <= 0:
            raise ValueError(f"crossbar {name!r} needs positive port counts")
        if cycles_per_flit <= 0:
            raise ValueError(f"crossbar {name!r} needs positive per-flit service time")
        self.name = name
        self.num_in = num_in
        self.num_out = num_out
        self.cycles_per_flit = float(cycles_per_flit)
        self.latency = float(latency)
        self.link_mm = link_mm
        # Serialization happens on both the input link and the output link;
        # the pipeline latency is charged once, on the output side.
        self.in_ports = ServerGroup(f"{name}.in", num_in, cycles_per_flit, 0.0)
        self.out_ports = ServerGroup(f"{name}.out", num_out, cycles_per_flit, latency)
        # Direct server lists for the hot path (skip ServerGroup indexing).
        self._in = self.in_ports.servers
        self._out = self.out_ports.servers
        self.flit_hops = 0
        # SimSanitizer hook: when a ResourceLedger is attached, every port
        # reservation is validated (finite/ordered times, positive flit
        # counts, no runaway holds) the moment it is made.
        self._ledger = None

    def attach_sanitizer(self, ledger) -> None:
        """Attach a :class:`repro.analysis.sanitizer.ResourceLedger`."""
        self._ledger = ledger

    def traverse(self, now: float, in_port: int, out_port: int, flits: int) -> float:
        """Send ``flits`` flits from ``in_port`` to ``out_port``.

        Returns the completion time (head of packet out + serialization +
        pipeline latency).
        """
        self.flit_hops += flits
        t_in = self._in[in_port].reserve(now, flits)
        t_out = self._out[out_port].reserve(t_in, flits)
        if self._ledger is not None:
            self._ledger.check_reservation(
                f"{self.name}[{in_port}->{out_port}]", now, flits, t_out
            )
        return t_out

    def traverse_fast(self, now: float, in_port: int, out_port: int, flits: int) -> float:
        """Uninstrumented :meth:`traverse`: both port reservations inlined
        (see :meth:`Server.reserve_fast <repro.sim.resources.Server.reserve_fast>`),
        no ledger validation.  Arithmetic must stay in lockstep with
        ``traverse`` — the fingerprint-identity tests guard the pairing.
        Selected at wiring time (``NoCTopology.make_fast_routes``) only
        when no sanitizer is attached.
        """
        self.flit_hops += flits
        p = self._in[in_port]
        start = now if now > p.next_free else p.next_free
        occupancy = p.service * flits
        p.next_free = start + occupancy
        p.busy_cycles += occupancy
        p.num_served += 1
        t_in = start + occupancy + p.latency
        p = self._out[out_port]
        start = t_in if t_in > p.next_free else p.next_free
        occupancy = p.service * flits
        p.next_free = start + occupancy
        p.busy_cycles += occupancy
        p.num_served += 1
        return start + occupancy + p.latency

    def max_out_utilization(self, total_cycles: float) -> float:
        """Max output-port (reply-link) utilization — the Fig. 2 NoC metric."""
        return self.out_ports.max_utilization(total_cycles)

    def max_in_utilization(self, total_cycles: float) -> float:
        return self.in_ports.max_utilization(total_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Crossbar({self.name!r}, {self.num_in}x{self.num_out})"
