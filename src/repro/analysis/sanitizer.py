"""SimSanitizer — a runtime resource sanitizer for the simulator.

Think ASan/TSan for the discrete-event model: every acquire/release-shaped
resource in the system (MSHR entries, DC-L1 Q1 queue slots, in-flight
requests) is mirrored in a central :class:`ResourceLedger`.  Violations —
double-acquires, double-frees, events scheduled after the queue drained,
runaway port reservations, capacity overflows — raise a
:class:`SanitizerError` *at the moment they happen*, attributed to the
owning request and its acquisition history, instead of surfacing hundreds
of millions of events later as an opaque livelock against the engine's
event budget.  Leaks (resources still held when the system drains) are
reported by :meth:`ResourceLedger.assert_drained`.

The sanitizer is opt-in: enable it with ``SimConfig(sanitize=True)``, the
``repro simulate --sanitize`` CLI flag, or the ``REPRO_SANITIZE=1``
environment variable.  When disabled, the instrumented hot paths pay only
a single ``is None`` check, keeping the fast path fast.

This module is dependency-free (no imports from :mod:`repro.sim`) so the
engine and cache layers can hold a ledger without import cycles.

See ``docs/analysis.md`` for the full story, and
:mod:`repro.analysis.simrace` and :mod:`repro.analysis.simpure` for the
static (AST) half of the analysis subsystem.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

#: A reservation that pushes a port's ``next_free`` more than this many
#: cycles past "now" is considered runaway (a camped/never-released port).
RUNAWAY_RESERVATION_CYCLES = 1e9


class SanitizerError(RuntimeError):
    """An invariant violation caught by the SimSanitizer."""


def describe_owner(owner: Any) -> str:
    """Human-readable identity of a resource owner.

    Memory requests get a rich description (core, line, kind, issue time);
    anything else falls back to ``repr``.
    """
    if owner is None:
        return "<no owner>"
    core_id = getattr(owner, "core_id", None)
    line = getattr(owner, "line", None)
    if core_id is not None and line is not None:
        kind = getattr(owner, "kind", None)
        if isinstance(kind, int) and not hasattr(kind, "name"):
            # Trace streams carry kinds as raw ints; decode on this cold
            # path only (deferred import keeps this module dependency-free).
            try:
                from repro.gpu.request import AccessKind

                kind = AccessKind(kind)
            except Exception:
                pass
        kind_name = getattr(kind, "name", str(kind))
        issued = getattr(owner, "issue_time", None)
        extra = f" issued@{issued:.1f}" if isinstance(issued, float) else ""
        return f"request(core={core_id}, line={line:#x}, kind={kind_name}{extra})"
    return repr(owner)


class ResourceHold:
    """One currently-held resource and its attribution history."""

    __slots__ = ("kind", "key", "owner", "acquired_at", "history")

    def __init__(self, kind: str, key: Any, owner: Any, acquired_at: float):
        self.kind = kind
        self.key = key
        self.owner = owner
        self.acquired_at = acquired_at
        self.history: List[str] = []

    def describe(self) -> str:
        text = (
            f"{self.kind}[{self.key!r}] acquired at t={self.acquired_at:.1f} "
            f"by {describe_owner(self.owner)}"
        )
        if self.history:
            text += "; history: " + " | ".join(self.history)
        return text


class ResourceLedger:
    """Central acquire/release bookkeeping for every sanitized resource.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time (wire
        it to ``lambda: engine.now``); defaults to a constant 0.0 clock so
        the ledger is usable standalone in unit tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._held: Dict[Tuple[str, Any], ResourceHold] = {}
        self.acquires = 0
        self.releases = 0
        self.notes = 0

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    # -- acquire / release -------------------------------------------------

    def acquire(self, kind: str, key: Any, owner: Any = None) -> None:
        """Record that ``owner`` now holds ``kind[key]``.

        A second acquire of a held resource is a double-allocation and
        raises immediately, naming the current holder.
        """
        hk = (kind, key)
        held = self._held.get(hk)
        if held is not None:
            raise SanitizerError(
                f"double-acquire of {kind}[{key!r}] at t={self.now():.1f} by "
                f"{describe_owner(owner)}; already held: {held.describe()}"
            )
        self._held[hk] = ResourceHold(kind, key, owner, self.now())
        self.acquires += 1

    def release(self, kind: str, key: Any) -> ResourceHold:
        """Record that ``kind[key]`` was released; returns the hold.

        Releasing a resource that is not held is a double-free (or a free
        of something never acquired) and raises immediately.
        """
        hold = self._held.pop((kind, key), None)
        if hold is None:
            raise SanitizerError(
                f"double-free: release of {kind}[{key!r}] at t={self.now():.1f} "
                "with no matching acquire"
            )
        self.releases += 1
        return hold

    def note(self, kind: str, key: Any, message: str) -> None:
        """Append an attribution breadcrumb to a held resource's history
        (no-op when the resource is not held)."""
        hold = self._held.get((kind, key))
        if hold is not None:
            hold.history.append(f"t={self.now():.1f}: {message}")
            self.notes += 1

    # -- queries -----------------------------------------------------------

    def outstanding(self, kind: Optional[str] = None) -> int:
        """Number of currently-held resources (optionally of one kind)."""
        if kind is None:
            return len(self._held)
        return sum(1 for (k, _key) in self._held if k == kind)

    def holds(self, kind: Optional[str] = None) -> List[ResourceHold]:
        """Currently-held resources, in acquisition order."""
        return [
            h for (k, _key), h in self._held.items() if kind is None or k == kind
        ]

    # -- violations --------------------------------------------------------

    def violation(self, message: str) -> None:
        """Raise an attributed sanitizer error at the current sim time."""
        raise SanitizerError(f"t={self.now():.1f}: {message}")

    def scheduled_after_drain(self, time: float, callback: Any, payload: Any) -> None:
        """Called by the engine when an event is scheduled after the queue
        drained — always a lifecycle bug (work created after completion)."""
        cb = getattr(callback, "__qualname__", repr(callback))
        self.violation(
            f"event scheduled after drain: {cb} at t={time!r} "
            f"(payload={describe_owner(payload)})"
        )

    def check_reservation(
        self, name: str, start: float, size: float, completion: float
    ) -> None:
        """Validate one port/bank reservation (crossbar or server).

        Flags non-finite or negative times, non-positive sizes, and
        reservations stretching implausibly far into the future (a camped,
        effectively never-released port).
        """
        # NaN fails every comparison, so each chained check catches it too.
        if not (0.0 <= start < RUNAWAY_RESERVATION_CYCLES * 1e3):
            self.violation(f"{name}: reservation with bad start time {start!r}")
        if not (size > 0):
            self.violation(f"{name}: reservation with non-positive size {size!r}")
        if not (start <= completion < start + RUNAWAY_RESERVATION_CYCLES):
            self.violation(
                f"{name}: runaway reservation (start={start!r}, "
                f"completion={completion!r}) — port held past the runaway bound"
            )

    # -- drain checking ----------------------------------------------------

    def check_drained(self) -> List[str]:
        """One finding per leaked (still-held) resource; empty when clean."""
        return ["leaked " + hold.describe() for hold in self._held.values()]

    def assert_drained(self) -> None:
        """Raise :class:`SanitizerError` listing every leaked resource."""
        findings = self.check_drained()
        if findings:
            raise SanitizerError(
                f"{len(findings)} resource(s) leaked at drain:\n  "
                + "\n  ".join(findings)
            )

    def summary(self) -> str:
        return (
            f"ResourceLedger(acquires={self.acquires}, releases={self.releases}, "
            f"outstanding={len(self._held)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.summary()
