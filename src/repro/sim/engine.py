"""Discrete-event engine.

A deliberately small event loop built around a *bucket queue*: a binary
heap of distinct ``(time, priority)`` keys plus a dict mapping each key to
its FIFO bucket of pending ``(callback, payload)`` entries (stored flat as
``[cb0, p0, cb1, p1, ...]``).  Timestamp ties are broken first by the
optional integer ``priority`` (lower runs first; default 0) and then by
insertion order — appending to the bucket *is* the FIFO tie-break, so the
old per-event ``seq`` counter is structural now instead of stored.  Every
simulation stays bit-reproducible for a given workload seed.

``priority`` exists so that handlers with a *semantically required*
same-cycle order (e.g. release a queue credit before the co-scheduled
acquire sees it) can declare that order explicitly instead of relying on
the textual order of ``schedule()`` calls — the fragile implicit contract
SimRace (:mod:`repro.analysis.simrace`) exists to police.

Ordering contract of the bucket queue
-------------------------------------
Identical to the flat ``(time, priority, seq)`` heap it replaced, with one
sharpened clause: events scheduled at the key *currently being drained*
open a fresh bucket that runs after the current one completes — exactly
where their higher seq numbers would have put them — but a handler must
never schedule at ``(now, priority < current)``, which the flat heap would
have interleaved into the current batch's remainder.  No handler in this
model can: every resource hop has strictly positive occupancy, so every
follow-on event lands strictly later or at equal time with equal-or-higher
priority.  The shadow-shuffle drain (SimRace's dynamic confirmer) exists
precisely to catch simulations that depend on same-cycle accidents.

Hot-path architecture (SimTurbo)
-------------------------------
The engine serves two masters: multi-hundred-thousand-event production
runs that should spend every cycle in model callbacks, and instrumented
diagnostic runs (sanitizer / watchdog / shadow-shuffle / profiler) that
trade speed for observability.  The split is resolved **once, at attach
time**, never per event:

* :meth:`schedule` is the lean fast path — validate, bucket-append (one
  heap push per *distinct* key, not per event).  :meth:`attach_sanitizer`
  hot-swaps in :meth:`_schedule_checked`, a slow-path wrapper that
  additionally flags scheduling after the queue drained; detaching
  (``attach_sanitizer(None)``) restores the fast one.
* :meth:`run` is the only drain and the single instrumentation-dispatch
  point.  It picks exactly one drain loop (instrumented > plain); the
  instrumented loop serves every attached instrument at once, so
  attaching one never silences another.
* Every drain loop localizes the heap, the bucket dict and the event
  counter and flushes the counter back in a ``finally`` — exceptions
  (budget, stall) never lose the count, and a bucket interrupted
  mid-drain re-queues its unprocessed remainder so no event is lost.
* Both loops call one callback per event.  The fused handlers of
  :mod:`repro.sim.system` are plain callbacks to the engine; they push
  their follow-on events straight into ``_heap`` and ``_buckets``
  (:meth:`schedule`'s append, validation elided), so the bucket layout
  is an interface the system relies on.

The engine also implements SimRace's dynamic half: constructing it with a
``shuffle_seed`` enables *shadow shuffle* mode, where each bucket has its
distinct-handler blocks deterministically permuted before execution (FIFO
order is preserved *within* each handler, and across different
priorities).  A simulation whose results change under shuffle depends on
accidental schedule-call order — a same-cycle ordering hazard.
Co-scheduled handler pairs are recorded in :attr:`Engine.batch_pairs` for
attribution.

The engine knows nothing about GPUs; :mod:`repro.sim.system` schedules
request-lifecycle callbacks onto it.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

_INF = math.inf
_heappush = heapq.heappush
_heappop = heapq.heappop


class Engine:
    """Minimal deterministic discrete-event simulator."""

    def __init__(self, max_events: int = 500_000_000, shuffle_seed: Optional[int] = None):
        # Bucket queue: heap of distinct (time, priority) keys; dict of
        # key -> flat FIFO bucket [cb0, p0, cb1, p1, ...].  Invariant: a
        # key is in the heap iff it is in the dict (each exactly once).
        self._heap: list = []
        self._buckets: dict = {}
        self.now = 0.0
        self.events_processed = 0
        self.max_events = max_events
        # SimSanitizer hooks (see repro.analysis.sanitizer): when a ledger
        # is attached, scheduling after the queue drained is flagged as a
        # lifecycle bug instead of silently re-animating the simulation.
        # The check lives in _schedule_checked, installed over schedule()
        # by attach_sanitizer so uninstrumented runs never pay for it.
        self._sanitizer = None
        self._drained = False
        # SimRace shadow-shuffle mode (see repro.analysis.simrace): a
        # seeded RNG that permutes same-(time, priority) handler blocks.
        self._shuffle_rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.shuffled_batches = 0
        # (handler_a, handler_b) qualname pairs observed co-scheduled in
        # one batch -> occurrence count.  Only populated in shuffle mode.
        self.batch_pairs: Dict[Tuple[str, str], int] = {}
        # Stall watchdog (see repro.sim.watchdog): observation-only
        # progress monitor, fed by _drain_instrumented when attached.
        self._watchdog = None
        # Per-handler event profiler (see repro.sim.profiler).
        self._profiler = None

    def attach_sanitizer(self, ledger) -> None:
        """Attach a :class:`repro.analysis.sanitizer.ResourceLedger`.

        Installs the slow-path :meth:`_schedule_checked` over
        :meth:`schedule` so the scheduled-after-drain check is only ever
        evaluated on instrumented runs; passing ``None`` detaches the
        ledger and restores the branch-free fast path.
        """
        self._sanitizer = ledger
        if ledger is not None:
            self.schedule = self._schedule_checked  # type: ignore[method-assign]
        else:
            self.__dict__.pop("schedule", None)

    def attach_watchdog(self, watchdog) -> None:
        """Attach a :class:`repro.sim.watchdog.StallWatchdog`."""
        self._watchdog = watchdog

    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.sim.profiler.EventProfiler`.

        The instrumented drain loop brackets every callback with the
        profiler's clock and accumulates per-handler counts/self-time.
        Event order (and therefore every simulation result) is identical
        to the plain loop.  Pass ``None`` to detach.
        """
        self._profiler = profiler

    def schedule(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(payload)`` to run at simulated ``time``.

        ``priority`` breaks timestamp ties (lower runs first); equal
        priorities fall back to FIFO insertion order.  Pass it only when
        the same-cycle order against another handler is a semantic
        requirement of the model — it documents (and enforces) the order,
        and exempts the pair from SimRace's accidental-order findings.

        Scheduling in the past is a modelling bug and raises immediately.
        So does a NaN or infinite timestamp: NaN compares False against
        everything (a bare ``time < now`` check silently admits it) and
        would corrupt the heap's ordering invariant for every later event.
        The chained comparison below rejects past, NaN and +/-inf times in
        one branch on the hot path.
        """
        if not (self.now <= time < _INF):
            raise ValueError(
                f"cannot schedule event at {time!r} (now={self.now}): "
                "event times must be finite and not in the past"
            )
        key = (time, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            # One two-entry bucket per distinct key; amortized across every
            # later same-key event, which is a pure dict-hit append.
            self._buckets[key] = [callback, payload]
            _heappush(self._heap, key)
        else:
            bucket.append(callback)
            bucket.append(payload)

    def _schedule_checked(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
        priority: int = 0,
    ) -> None:
        """Sanitizer slow path for :meth:`schedule` (same contract): the
        scheduled-after-drain lifecycle check, then the one schedule body."""
        if self._drained:
            self._sanitizer.scheduled_after_drain(time, callback, payload)
        Engine.schedule(self, time, callback, payload, priority)

    def schedule_batch(
        self,
        time: float,
        callback: Callable[[Any], None],
        payloads,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(p)`` for every ``p`` in ``payloads``.

        Exactly equivalent to one :meth:`schedule` call per payload in
        iteration order (consecutive bucket slots preserve FIFO), with the
        validation and bucket lookup hoisted out of the loop.  Its caller
        is :meth:`repro.sim.system.GPUSystem.run`, which seeds every
        wavefront's first issue at time 0 in one call.
        """
        if not (self.now <= time < _INF):
            raise ValueError(
                f"cannot schedule event at {time!r} (now={self.now}): "
                "event times must be finite and not in the past"
            )
        if self._sanitizer is not None:
            # Instrumented runs route through the (possibly hot-swapped)
            # checked schedule so the after-drain check still fires.
            sched = self.schedule
            for payload in payloads:
                sched(time, callback, payload, priority)
            return
        key = (time, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = []
            self._buckets[key] = bucket
            _heappush(self._heap, key)
        append = bucket.append
        for payload in payloads:
            append(callback)
            append(payload)

    def empty(self) -> bool:
        """True when no events remain."""
        return not self._heap

    def run(self) -> float:
        """Drain the event queue; returns the final simulated time.

        Exactly one loop runs.  Any attached instrument (shadow shuffle,
        watchdog, profiler) selects the instrumented loop, which serves
        all of them at once; results are bit-identical either way.
        Otherwise the branch-free plain loop runs.  The drain flag is
        maintained in a ``finally`` so every exit path (drain, budget
        error, stall error, a raising callback) agrees: an empty heap IS
        a full drain, a non-empty one is not.
        """
        try:
            if (self._shuffle_rng is not None or self._watchdog is not None
                    or self._profiler is not None):
                self._drain_instrumented()
            else:
                self._drain_plain()
        finally:
            self._drained = not self._heap
        return self.now

    # --------------------------------------------------------------- drain

    def _budget_error(self) -> RuntimeError:
        """The (single) event-budget failure for every drain loop."""
        return RuntimeError(
            f"event budget exceeded ({self.max_events}); "
            "likely a livelock in the request state machine"
        )

    def _requeue_remainder(self, key, bucket: list, i: int) -> None:
        """Re-queue the unprocessed tail of a bucket interrupted mid-drain
        (budget error, watchdog stall, a callback raising).  The remainder
        must run before anything scheduled at the same key *during* the
        interrupted bucket — those went into a fresh bucket — so it is
        prepended, restoring the exact pre-pop order.
        """
        rest = bucket[i:]
        existing = self._buckets.get(key)
        if existing is None:
            self._buckets[key] = rest
            _heappush(self._heap, key)
        else:
            existing[:0] = rest

    def _drain_plain(self) -> None:
        """Branch-free production loop: pop a bucket, advance, call each
        entry in FIFO order, count."""
        heap = self._heap
        buckets = self._buckets
        pop = _heappop
        budget = self.max_events
        n = self.events_processed
        key = None
        bucket: list = []
        i = size = 0
        try:
            while heap:
                key = heap[0]
                bucket = buckets.pop(key)
                pop(heap)
                self.now = key[0]
                i = 0
                size = len(bucket)
                while i < size:
                    callback = bucket[i]
                    payload = bucket[i + 1]
                    i += 2
                    callback(payload)
                    n += 1
                    if n > budget:
                        raise self._budget_error()
        finally:
            self.events_processed = n
            if i < size:
                self._requeue_remainder(key, bucket, i)

    def _drain_instrumented(self) -> None:
        """Drain the queue with every attached instrument observing it,
        one ``is not None`` branch each, so any combination sees the run.

        * Shadow shuffle permutes each bucket's handler blocks before it
          runs (a bucket's FIFO order is the accident being probed).  The
          permuted bucket stays flat, so an interrupted drain re-queues
          its tail like every other loop.
        * The stall watchdog sees every time advance and every event, and
          raises ``SimStallError`` on a livelock signature.
        * The profiler times each callback (with ``trace_alloc``, also its
          tracemalloc delta; the caller owns tracemalloc start/stop).  The
          watchdog's bookkeeping stays outside the timed region.

        Bar the shuffle, event order is the plain loop's, so results stay
        bit-identical to uninstrumented runs.
        """
        heap = self._heap
        buckets = self._buckets
        pop = _heappop
        shuffle = self._shuffle_rng is not None
        watchdog = self._watchdog
        prof = self._profiler
        if prof is not None:
            from tracemalloc import get_traced_memory as traced

            counts = prof.counts
            self_time = prof.self_time
            alloc_bytes = prof.alloc_bytes
            trace_alloc = prof.trace_alloc
            clock = prof.clock
            t_enter = clock()
        budget = self.max_events
        n = self.events_processed
        key = None
        bucket: list = []
        i = size = 0
        try:
            while heap:
                key = heap[0]
                bucket = buckets.pop(key)
                pop(heap)
                if shuffle and len(bucket) > 2:
                    bucket = self._permute_batch(bucket)
                time = key[0]
                if watchdog is not None and time > self.now:
                    watchdog.advanced(time)
                self.now = time
                i = 0
                size = len(bucket)
                while i < size:
                    callback = bucket[i]
                    payload = bucket[i + 1]
                    i += 2
                    if prof is None:
                        callback(payload)
                    else:
                        fn = getattr(callback, "__func__", callback)
                        if trace_alloc:
                            a0 = traced()[0]
                            t0 = clock()
                            callback(payload)
                            dt = clock() - t0
                            alloc_bytes[fn] = (
                                alloc_bytes.get(fn, 0) + traced()[0] - a0)
                        else:
                            t0 = clock()
                            callback(payload)
                            dt = clock() - t0
                        if fn in counts:
                            counts[fn] += 1
                            self_time[fn] += dt
                        else:
                            counts[fn] = 1
                            self_time[fn] = dt
                    n += 1
                    if watchdog is not None:
                        watchdog.event(time)
                    if n > budget:
                        raise self._budget_error()
        finally:
            if prof is not None:
                prof.wall_time += clock() - t_enter
            self.events_processed = n
            if i < size:
                self._requeue_remainder(key, bucket, i)

    # ------------------------------------------------------- shadow shuffle

    def _permute_batch(self, bucket: list) -> list:
        """Permute the distinct-handler blocks of one flat same-time
        bucket ``[cb0, p0, cb1, p1, ...]``, returning a new flat bucket.

        FIFO order is preserved *within* each handler (two pending
        ``_l1_access`` events stay in arrival order — self-pairs are
        resolved by arbitration in any real design and are out of
        SimRace's scope); only the relative order of *different* handlers
        is permuted, which is exactly the order an innocent refactor of
        ``schedule()`` call sites could change.
        """
        groups: Dict[Any, list] = {}
        order: List[Any] = []
        for i in range(0, len(bucket), 2):
            cb = bucket[i]
            key = getattr(cb, "__func__", cb)
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
                order.append(key)
            group += (cb, bucket[i + 1])
        if len(order) > 1:
            self._record_batch(order)
            self._shuffle_rng.shuffle(order)
            self.shuffled_batches += 1
        out: list = []
        for key in order:
            out += groups[key]
        return out

    def _record_batch(self, handler_keys: List[Any]) -> None:
        names = sorted(getattr(k, "__qualname__", repr(k)) for k in handler_keys)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                pair = (a, b)
                self.batch_pairs[pair] = self.batch_pairs.get(pair, 0) + 1
