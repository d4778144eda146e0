"""Runtime stall watchdog — liveness diagnosis for wedged simulations.

A leaked Q1 credit, a camped MSHR or a circular wait does not crash a
discrete-event simulation — it *wedges* it: the event queue drains (or
spins at one cycle) while requests are still in flight, and the run
either dies as an opaque ``outstanding != 0`` count mismatch or burns the
whole event budget.  With the watchdog attached (``SimConfig(watchdog=True)``,
``repro simulate --watchdog``, or ``REPRO_WATCHDOG=1``), a wedged run
raises :class:`SimStallError` carrying a :class:`WaitGraph` — who holds
what, who waits on what, and the oldest in-flight request's hop trace —
at the moment the stall is detectable.

Three triggers, all conservative (a healthy run never trips them):

* **wedged drain** — the event queue drained while requests are still in
  flight: every pending request waits on a resource no future event will
  ever release.  This is the definitive deadlock symptom and is checked
  by :meth:`StallWatchdog.drained` from ``GPUSystem.run``.
* **completion window** — simulated time keeps advancing but no request
  has completed for ``window`` cycles while requests are in flight
  (livelock through e.g. a retry storm).
* **same-cycle limit** — more than ``same_cycle_limit`` events execute
  at one simulated cycle without a completion or a time advance (a
  zero-delay event loop).

The watchdog is observation-only on the hot path (two counter updates per
event) and never changes simulation outcomes: watchdog-on runs are
bit-identical (``SimResult.fingerprint()``) to watchdog-off runs.

Holder attribution comes from the SimSanitizer ledger (watchdog mode
auto-attaches one) plus the holder hooks on
:class:`repro.sim.resources.Server`; wait edges come from the Q1 waiter
queues and the L1/L2 MSHR stall queues.  See ``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.analysis.sanitizer import describe_owner

__all__ = [
    "SimStallError",
    "StallWatchdog",
    "WaitGraph",
    "build_wait_graph",
]

#: Cap per wait-graph section so a massively-stalled run stays readable.
_MAX_SECTION_LINES = 16


class SimStallError(RuntimeError):
    """A simulation stopped making progress; carries the wait graph."""

    def __init__(self, message: str, wait_graph: Optional["WaitGraph"] = None):
        self.wait_graph = wait_graph
        if wait_graph is not None and not wait_graph.empty:
            message = f"{message}\n{wait_graph.render()}"
        super().__init__(message)


@dataclass
class WaitGraph:
    """Resource hold/wait snapshot of a stalled system.

    ``holds``: who holds what (ledger holds + camped server ports).
    ``waits``: who waits on what (Q1 waiter queues, MSHR stall queues).
    ``starved``: resources with zero availability *and* waiters — the
    direct suspects.  ``oldest``: the oldest in-flight request and its
    hop-trace breadcrumbs (ledger note history).
    """

    now: float = 0.0
    holds: List[str] = field(default_factory=list)
    waits: List[str] = field(default_factory=list)
    starved: List[str] = field(default_factory=list)
    oldest: List[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.holds or self.waits or self.starved or self.oldest)

    def _section(self, lines: List[str], title: str) -> List[str]:
        if not lines:
            return []
        shown = lines[:_MAX_SECTION_LINES]
        out = [f"{title}:"] + [f"  {line}" for line in shown]
        if len(lines) > len(shown):
            out.append(f"  ... and {len(lines) - len(shown)} more")
        return out

    def render(self) -> str:
        out = [f"resource wait graph at t={self.now:.1f}:"]
        out += self._section(self.starved, "starved resources")
        out += self._section(self.waits, "waiting")
        out += self._section(self.holds, "holding")
        out += self._section(self.oldest, "oldest in-flight request")
        if len(out) == 1:
            out.append("  (no holds or waiters recorded — attach the "
                       "sanitizer ledger for attribution)")
        return "\n".join(out)


class StallWatchdog:
    """Progress monitor wired between the engine and the system.

    The engine calls :meth:`event` after every dispatched event and
    :meth:`advanced` when simulated time moves; the system calls
    :meth:`progress` on every request completion and :meth:`drained`
    after the event queue empties.  ``inflight`` reports the in-flight
    request count; ``graph`` builds the wait-graph dump lazily (only on
    the failure path).  ``window`` is the no-completion span in cycles
    (generous: the deepest healthy round trip is ~1k cycles), and
    ``same_cycle_limit`` the events allowed at one cycle without a
    completion or time advance.
    """

    def __init__(
        self,
        window: float = 50_000.0,
        same_cycle_limit: int = 1_000_000,
        inflight: Optional[Callable[[], int]] = None,
        graph: Optional[Callable[[], "WaitGraph"]] = None,
    ):
        if not window > 0:
            raise ValueError("watchdog window must be positive")
        if same_cycle_limit < 1:
            raise ValueError("watchdog same-cycle limit must be >= 1")
        self.window = float(window)
        self.same_cycle_limit = int(same_cycle_limit)
        self._inflight = inflight if inflight is not None else (lambda: 0)
        self._graph = graph
        self.last_progress = 0.0
        self.completions = 0
        self.events_at_cycle = 0

    # -- notifications -----------------------------------------------------

    def progress(self, now: float) -> None:
        """A request completed: the system is live."""
        self.last_progress = now
        self.completions += 1
        self.events_at_cycle = 0

    def advanced(self, now: float) -> None:
        """Simulated time moved forward."""
        self.events_at_cycle = 0

    def event(self, now: float) -> None:
        """One event dispatched; trips on livelock signatures."""
        self.events_at_cycle += 1
        if self.events_at_cycle > self.same_cycle_limit:
            self._stall(
                f"simulated time pinned at t={now:.1f}: "
                f"{self.events_at_cycle} events without a completion or "
                "time advance (same-cycle livelock)"
            )
        if now - self.last_progress > self.window and self._inflight() > 0:
            self._stall(
                f"no request completed for {now - self.last_progress:.1f} "
                f"cycles (window={self.window:g}) with "
                f"{self._inflight()} request(s) in flight"
            )

    def drained(self, now: float) -> None:
        """The event queue emptied; wedged if requests remain in flight."""
        inflight = self._inflight()
        if inflight > 0:
            self._stall(
                f"event queue drained at t={now:.1f} with {inflight} "
                "request(s) still in flight — every pending request waits "
                "on a resource no future event will release (deadlock)"
            )

    # -- failure path ------------------------------------------------------

    def _stall(self, message: str) -> None:
        graph = self._graph() if self._graph is not None else None
        raise SimStallError(message, graph)


def build_wait_graph(system: Any) -> WaitGraph:
    """Snapshot the resource hold/wait state of a :class:`GPUSystem`.

    Reads only — safe to call from the failure path at any point of a
    run.  Works with partial instrumentation: sections whose source is
    absent (no ledger, no finite Q1) simply come out empty.
    """
    graph = WaitGraph(now=system.engine.now)

    ledger = getattr(system, "_ledger", None)
    request_holds = []
    if ledger is not None:
        for hold in ledger.holds():
            if hold.kind == "request":
                request_holds.append(hold)
            else:
                graph.holds.append(hold.describe())

    # Camped server ports (holder attribution on Server.reserve).
    now = graph.now
    banks = list(getattr(system, "l1_banks", ())) + list(getattr(system, "l2_banks", ()))
    for mc in getattr(system, "mcs", ()):
        banks.extend(mc.banks)
    for bank in banks:
        holder = bank.current_holder(now)
        if holder is not None:
            graph.holds.append(
                f"{bank.name} busy until t={bank.next_free:.1f}, "
                f"serving {describe_owner(holder)} since t={bank.holder_since:.1f}"
            )

    # Q1 credit waiters (finite node queues).
    credits = getattr(system, "_node_credits", None)
    waiters = getattr(system, "_node_waiters", None)
    if credits is not None and waiters is not None:
        for n, queue in enumerate(waiters):
            if not queue:
                continue
            head = describe_owner(queue[0])
            graph.waits.append(
                f"dcl1-q1[{n}]: {len(queue)} request(s) queued for a "
                f"credit; oldest {head}"
            )
            if credits[n] == 0:
                holders = []
                if ledger is not None:
                    holders = [
                        describe_owner(h.owner)
                        for h in ledger.holds("dcl1-q1")
                        if isinstance(h.key, tuple) and h.key and h.key[0] == n
                    ]
                held_by = ("; credits held by " + ", ".join(holders)) if holders else ""
                graph.starved.append(
                    f"dcl1-q1[{n}]: 0 credit(s) free, {len(queue)} "
                    f"waiter(s){held_by}"
                )

    # MSHR stall queues.
    def _mshr_waits(name: str, mshr: Any) -> None:
        stalled = getattr(mshr, "stalled", None)
        if not stalled:
            return
        graph.waits.append(
            f"{name}: {len(stalled)} request(s) stalled for an entry; "
            f"oldest {describe_owner(stalled[0])}"
        )
        if getattr(mshr, "full", False):
            graph.starved.append(
                f"{name}: all entries in use, {len(stalled)} waiter(s)"
            )

    for i, mshr in enumerate(getattr(system, "l1_mshrs", ())):
        _mshr_waits(f"l1-mshr[{i}]", mshr)
    for slice_ in getattr(system, "l2_slices", ()):
        _mshr_waits(f"l2-mshr[{slice_.slice_id}]", slice_.mshr)

    # Oldest in-flight request plus its hop-trace breadcrumbs.
    if request_holds:
        oldest = min(request_holds, key=lambda h: (h.acquired_at, str(h.key)))
        graph.oldest.append(
            f"{describe_owner(oldest.owner)} in flight since "
            f"t={oldest.acquired_at:.1f}"
        )
        graph.oldest.extend(f"hop {line}" for line in oldest.history)
    return graph
