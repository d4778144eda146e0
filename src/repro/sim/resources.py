"""Reservation servers — the timing primitive of the simulator.

Every finite-bandwidth hardware resource (a crossbar port, a cache bank, a
DRAM channel) is modelled as a :class:`Server`: a pipelined unit with a
per-transaction *occupancy* (``service`` cycles, during which no other
transaction may start) and a *latency* (cycles between the start of service
and the transaction emerging at the other side).

A transaction arriving at time ``t`` starts at ``max(t, next_free)``; the
server is then busy for ``service * size`` cycles (``size`` is the
transaction size in service units, e.g. flits), and the transaction emerges
``latency`` cycles after its service *begins*.  This is the classical
"latency + occupancy" model: it captures throughput ceilings and queueing
delay under contention without simulating individual cycles.

Frequencies are handled by expressing ``service`` and ``latency`` in *core*
cycles.  A NoC running at half the core clock has its per-flit service time
doubled; the paper's ``+Boost`` optimization (doubling NoC#1 frequency)
halves it again.
"""

from __future__ import annotations


class Server:
    """A single pipelined resource with occupancy-based contention.

    Parameters
    ----------
    name:
        Human-readable identifier used in utilization reports.
    service:
        Cycles of occupancy per service unit (per flit / per access).
    latency:
        Pipeline latency in cycles from start of service to completion.
    """

    __slots__ = (
        "name", "service", "latency", "next_free", "busy_cycles", "num_served",
        "holder", "holder_since", "ledger",
    )

    def __init__(self, name: str, service: float, latency: float = 0.0):
        if service < 0 or latency < 0:
            raise ValueError(f"negative timing for server {name!r}")
        self.name = name
        self.service = float(service)
        self.latency = float(latency)
        self.next_free = 0.0
        self.busy_cycles = 0.0
        self.num_served = 0
        # Holder attribution (sanitizer/watchdog mirror): the last owner
        # to reserve the port and when its service started.  Servers are
        # time-released by construction (next_free expires), so there is
        # no ledger hold to leak — the mirror exists purely so the stall
        # watchdog's wait graph can say *who* a camped port is serving.
        self.holder = None
        self.holder_since = 0.0
        self.ledger = None

    def attach_sanitizer(self, ledger) -> None:
        """Attach a :class:`repro.analysis.sanitizer.ResourceLedger`;
        every reservation is then validated via ``check_reservation``."""
        self.ledger = ledger

    def reserve(self, now: float, size: float = 1.0, owner=None) -> float:
        """Reserve the server for a transaction arriving at ``now``.

        Returns the completion time (when the transaction emerges on the
        far side of the resource).  ``owner`` (optional) records who the
        port is serving, for watchdog/sanitizer attribution.
        """
        start = now if now > self.next_free else self.next_free
        occupancy = self.service * size
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        self.num_served += 1
        completion = start + occupancy + self.latency
        if owner is not None:
            self.holder = owner
            self.holder_since = start
        if self.ledger is not None:
            self.ledger.check_reservation(self.name, start, size, completion)
        return completion

    def reserve_fast(self, now: float, size: float = 1.0) -> float:
        """Uninstrumented :meth:`reserve`: identical arithmetic (and
        therefore identical timing results), minus the owner/ledger
        branches.  Selected once at wiring time by the system's hot-path
        setup when no sanitizer is attached — never chosen per event.
        Keep the arithmetic in lockstep with :meth:`reserve`; the
        fingerprint-identity tests guard the pairing.
        """
        start = now if now > self.next_free else self.next_free
        occupancy = self.service * size
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        self.num_served += 1
        return start + occupancy + self.latency

    def current_holder(self, now: float):
        """Owner the port is busy serving at ``now`` (None when idle or
        when reservations carried no owner)."""
        return self.holder if self.next_free > now else None

    def peek_start(self, now: float) -> float:
        """Earliest time a transaction arriving at ``now`` could start service."""
        return now if now > self.next_free else self.next_free

    def utilization(self, total_cycles: float) -> float:
        """Fraction of ``total_cycles`` this server spent busy."""
        if total_cycles <= 0:
            return 0.0
        u = self.busy_cycles / total_cycles
        return u if u < 1.0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server({self.name!r}, service={self.service}, latency={self.latency}, "
            f"served={self.num_served})"
        )


class ServerGroup:
    """A named, indexable collection of identical :class:`Server` objects.

    Used for things like "the 40 DC-L1 bank ports" or "the 32 L2 slice
    ports".  Provides aggregate accounting used by the utilization figures
    (Figure 2 and Figure 17 report the *maximum* utilization across the
    group).
    """

    def __init__(self, name: str, count: int, service: float, latency: float = 0.0):
        if count <= 0:
            raise ValueError(f"server group {name!r} must have at least one server")
        self.name = name
        self.servers = [Server(f"{name}[{i}]", service, latency) for i in range(count)]

    def __len__(self) -> int:
        return len(self.servers)

    def __getitem__(self, idx: int) -> Server:
        return self.servers[idx]

    def __iter__(self):
        return iter(self.servers)

    def max_utilization(self, total_cycles: float) -> float:
        """Maximum utilization across the group (paper's Fig. 2 / Fig. 17 metric)."""
        return max(s.utilization(total_cycles) for s in self.servers)

    def total_served(self) -> int:
        """Total transactions served by the whole group."""
        return sum(s.num_served for s in self.servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServerGroup({self.name!r}, n={len(self.servers)})"
