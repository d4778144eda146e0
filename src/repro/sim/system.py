"""Full-system wiring and the request lifecycle.

:class:`GPUSystem` assembles one (workload, design, platform) triple into a
runnable simulation: cores with wavefront slots, the L1 level (per-core
private L1s or DC-L1 nodes, per the design), the two NoCs, L2 slices and
memory controllers — then drives the request state machine of Section III:

Baseline::

    core issue → local L1 bank → hit? done : NoC#2 → L2 → (DRAM) → NoC#2 → fill

DC-L1 designs::

    core issue → NoC#1 → DC-L1 node (Q1, bank) → hit? NoC#1 reply
                                               : NoC#2 → L2 → (DRAM) →
                                                 NoC#2 → fill (Q4) → NoC#1 reply

Stores are write-evict / no-write-allocate at the L1 level and always
travel to L2 (with their data, plus the evicted line on a hit); their ACK
returns over the reply networks but the issuing wavefront does not block
on it.  Atomics and "non-L1" bypass traffic (instruction/texture/constant
misses) skip the (DC-)L1 cache and are resolved at the L2/MC — in DC-L1
designs they still pass *through* the home node (Q1→Q3), so they ride
NoC#1 and NoC#2 exactly as the paper describes.

Hot-path architecture (SimTurbo, see docs/performance.md)
---------------------------------------------------------
The request lifecycle is the simulator's inner loop; every per-event cost
here multiplies by hundreds of thousands.  ``_wire_hot_path`` resolves
the fast/slow split once, at build time:

* ``self._fast`` is True iff no sanitizer ledger is attached (the stall
  watchdog implies the ledger).  Fast runs use pre-bound route closures
  (:meth:`NoCTopology.make_fast_routes`), per-bank ``reserve_fast`` bound
  methods, a pre-bound :meth:`HomeMapper.make_fast_home_of` closure and a
  ``MemoryRequest`` free list; instrumented runs keep the original
  owner/ledger-attributed calls.  Both share one callable signature per
  hop, so the handlers have a single code path per event kind.
* ``_wf_issue`` splits into a lean LOAD fast path (the dominant kind)
  and a cold path for STORE/ATOMIC/BYPASS/ledger runs.
* Result counters are batched into plain integer attributes and flushed
  once, in ``_collect`` — nothing reads them mid-run (the live audit
  inspects structural state only).
* Every design drains on scalar dispatch, except the single-cluster
  Sh40 shape: there ``_make_fused_handlers`` builds fused per-event
  closures that replace ``_wf_issue``, ``_l1_access`` and ``_complete``
  on the instance.  ``dispatch_tier`` names the tier taken.

Every specialization preserves arithmetic exactly; the fingerprint
identity of fast vs. instrumented runs is enforced by
``tests/test_simturbo.py``.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from heapq import heappush as _heappush
from time import perf_counter
from typing import List, Optional, Union

from repro.cache.cache import SetAssociativeCache
from repro.cache.directory import ReplicationDirectory
from repro.cache.mshr import MSHRFile
from repro.core.clusters import ClusterGeometry
from repro.core.designs import DesignKind, DesignSpec
from repro.core.home import HomeMapper
from repro.gpu.core import CoreState
from repro.gpu.cta import make_scheduler
from repro.gpu.request import AccessKind, MemoryRequest
from repro.gpu.wavefront import Wavefront
from repro.mem.dram import MemoryController
from repro.mem.interleave import AddressMap
from repro.mem.l2 import L2Slice
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.resources import Server
from repro.sim.results import SimResult
from repro.sim.watchdog import StallWatchdog, build_wait_graph
from repro.workloads.generator import Workload, generate_workload
from repro.workloads.profile import AppProfile

# Access kinds as plain ints: streams already deliver ints (see
# Wavefront.next_access) and IntEnum comparisons cost an extra call on
# the hottest lines in the simulator.
_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)
_ATOMIC = int(AccessKind.ATOMIC)
_BYPASS = int(AccessKind.BYPASS)

# The scalar handlers the fused Sh40 closures replace on the instance.
_FUSED_HANDLERS = ("_wf_issue", "_l1_access", "_complete")


class GPUSystem:
    """One runnable simulation instance (single-use: build, run, read)."""

    def __init__(
        self,
        workload: Union[Workload, AppProfile],
        spec: DesignSpec,
        config: Optional[SimConfig] = None,
    ):
        self.cfg = config or SimConfig()
        gpu = self.cfg.gpu
        if isinstance(workload, AppProfile):
            workload = generate_workload(workload, self.cfg.scale)
        self.workload = workload
        self.spec = spec
        self.engine = Engine(
            max_events=self.cfg.max_events,
            # SimRace shadow-shuffle mode: permute same-cycle handler
            # blocks under a seeded RNG (see repro.analysis.simrace).
            shuffle_seed=self.cfg.race_seed if self.cfg.race_check else None,
        )
        self.amap = AddressMap(gpu.line_bytes, gpu.num_l2_slices, gpu.num_channels)
        self._line_flits = gpu.line_bytes // gpu.flit_bytes
        self._req_flits = max(1, math.ceil(workload.profile.request_bytes / gpu.flit_bytes))
        # Reply size on NoC#1: the requested data only (Section III), or the
        # whole line under the wasteful-reply ablation.
        self._noc1_reply_flits = (
            self._line_flits if self.cfg.full_line_noc1_replies else self._req_flits
        )

        self.decoupled = spec.is_decoupled
        if self.decoupled:
            self.geometry = ClusterGeometry.from_design(spec, gpu.num_cores, gpu.num_l2_slices)
            self.home = HomeMapper(
                self.geometry,
                strategy=self.cfg.home_strategy,
                bit_shift=self.cfg.home_bit_shift,
            )
        else:
            self.geometry = None
            self.home = None

        self._build_l1_level()
        self._build_topology()
        self._build_l2_and_memory()
        self._build_cores()

        self.outstanding = 0
        self.result = SimResult(app=workload.name, design=spec.label or str(spec))
        self._ran = False

        # Optional credit-based Q1 backpressure (Figure 3's node queues).
        depth = self.cfg.dcl1_queue_depth
        if self.decoupled and depth is not None:
            if depth < 1:
                raise ValueError("dcl1_queue_depth must be >= 1")
            self._node_credits = [depth] * self.geometry.num_dcl1
            self._node_waiters = [deque() for _ in range(self.geometry.num_dcl1)]
        else:
            self._node_credits = None
            self._node_waiters = None

        # Opt-in SimSanitizer: mirror every acquire/release-shaped resource
        # in a central ledger so leaks/double-frees/lifecycle bugs surface
        # immediately, attributed to the owning request (docs/analysis.md).
        # The REPRO_SANITIZE / REPRO_WATCHDOG environment variables were
        # already resolved into the config at SimConfig construction; the
        # sim core itself never reads the environment (SimPure SP401).
        self._ledger = None
        self._sanitized_completions = 0
        if self.cfg.sanitize:
            self._attach_sanitizer()

        # Opt-in stall watchdog (see repro.sim.watchdog): diagnose a
        # wedged/livelocked run with a SimStallError + wait-graph dump.
        self._watchdog = None
        if self.cfg.watchdog:
            self._attach_watchdog()

        # Slow-path reference knob (see force_slow_path): when set,
        # _wire_hot_path keeps the instrumented slow twins even with no
        # ledger attached.  Deliberately *not* a SimConfig field — it
        # must never perturb sim_cache_key or the fingerprint contract.
        self._force_slow = False
        # SimVec confirmer knob (see force_scalar_dispatch): when set,
        # the fast wiring installs no fused handler, so every event runs
        # its scalar fast handler.  Same non-config rationale as above.
        self._force_scalar = False

        # Resolve the fast/slow hot-path split — must run last: it
        # captures the post-attach engine.schedule and keys everything
        # on whether a ledger ended up attached.
        self._wire_hot_path()

    def _wire_hot_path(self) -> None:
        """Bind the per-event hot path once (see the module docstring).

        Fast pre-bound callables keep the *same signatures* as the plain
        methods they replace, so every handler has exactly one code shape;
        which implementation runs was decided here, not per event.
        """
        # Re-wiring (force_slow_path / force_scalar_dispatch) starts from
        # the scalar methods: drop the fused handlers a fused wiring
        # installed over them, and no other instance attribute (a
        # RequestTrace wraps _complete the same way).
        if getattr(self, "dispatch_tier", None) == "fused":
            for name in _FUSED_HANDLERS:
                del self.__dict__[name]
        self._fast = self._ledger is None and not self._force_slow
        # Captures the sanitizer-checked wrapper when a ledger swapped it
        # in.  Named ``schedule`` (not ``_schedule``) on purpose: SimRace
        # recognizes scheduling by attribute name, and the prebound hop
        # must stay visible to its handler-reachability closures.
        self.schedule = self.engine.schedule
        amap = self.amap
        self._line_bits = amap.line_bits
        self._num_l2_slices = amap.num_l2_slices
        self._slices_per_chan = amap.num_l2_slices // amap.num_channels
        self._request_bytes = self.workload.profile.request_bytes
        self._home_of = self.home.make_fast_home_of() if self.decoupled else None
        if self._fast:
            routes = self.topo.make_fast_routes()
            self._rt_core_to_dcl1, self._rt_dcl1_to_core = routes[0], routes[1]
            self._rt_to_l2, self._rt_from_l2 = routes[2], routes[3]
            self._l1_reserve = [b.reserve_fast for b in self.l1_banks]
            self._l2_reserve = [b.reserve_fast for b in self.l2_banks]
        else:
            self._rt_core_to_dcl1 = self.topo.core_to_dcl1
            self._rt_dcl1_to_core = self.topo.dcl1_to_core
            self._rt_to_l2 = self.topo.to_l2
            self._rt_from_l2 = self.topo.from_l2
            self._l1_reserve = None
            self._l2_reserve = None
        # MemoryRequest free list — only recycled on uninstrumented runs
        # (the ledger keys live holds and hop traces by id(request)).
        self._req_pool: List[MemoryRequest] = []
        # Result counters, batched into locals and flushed in _collect().
        self._n_loads = 0
        self._n_stores = 0
        self._n_atomics = 0
        self._n_bypasses = 0
        self._n_dram_accesses = 0
        self._n_dram_writebacks = 0
        self._n_node_queue_stalls = 0
        self._n_bypassed_fills = 0
        self._rtt_sum = 0.0
        self._rtt_count = 0
        # SimVec fused dispatch (see docs/performance.md): the closures
        # of _make_fused_handlers, installed over the scalar handlers
        # only for the single-cluster shape on uninstrumented runs.  The
        # scalar handlers are the ground truth the fused ones are checked
        # against (force_scalar_dispatch), and a race_check run stays
        # scalar because SimRace's confirmer replays the methods its
        # static pass reads.  Every other design drains on scalar
        # dispatch.  Must resolve last: the closures capture the pool
        # rebuilt above.
        fused = None
        if self._fast and not self._force_scalar and not self.cfg.race_check:
            fused = self._make_fused_handlers()
        if fused is not None:
            # Instance attributes shadow the methods, so every
            # ``self.schedule(..., self._wf_issue, ...)`` site of the
            # scalar code schedules the fused handler too.
            self._wf_issue, self._l1_access, self._complete = fused  # type: ignore[method-assign]
        # The tier this wiring drains on, profiled or not
        # ("slow" / "scalar" / "fused"); the next re-wiring reads it.
        if not self._fast:
            self.dispatch_tier = "slow"
        else:
            self.dispatch_tier = "scalar" if fused is None else "fused"

    def force_slow_path(self) -> None:
        """Re-wire the system onto the instrumented slow twins, the
        reference side of the twin-path tests (tests/test_simturbo.py,
        tests/test_prop_simvec.py).  Safe before the first event: all
        batched counters are still zero, and the slow twins run correctly
        with no ledger attached (``_note`` no-ops, ``_issue_cold`` skips
        the acquire, the owner mirror on ``reserve`` is inert).  The
        resulting run must be bit-identical to the fast wiring — that
        identity *is* the twin-path contract."""
        if self._ran:
            raise RuntimeError("force_slow_path() must be called before run()")
        self._force_slow = True
        self._wire_hot_path()

    def force_scalar_dispatch(self) -> None:
        """Re-wire with SimVec fused dispatch disabled: the fast wiring
        stays, but every event runs its scalar fast handler (the SimVec
        differential confirmer).  The resulting run must be
        bit-identical to fused dispatch — that identity *is* the fused
        handlers' contract, enforced by tests/test_simturbo.py.  Like
        :meth:`force_slow_path`, deliberately not a SimConfig field: it
        must never perturb sim_cache_key or the fingerprint contract."""
        if self._ran:
            raise RuntimeError("force_scalar_dispatch() must be called before run()")
        self._force_scalar = True
        self._wire_hot_path()

    def _attach_watchdog(self) -> None:
        if self._ledger is None:
            # Wait-graph holder attribution rides the sanitizer ledger;
            # watchdog mode implies it (sanitized runs are bit-identical).
            self._attach_sanitizer()
        watchdog = StallWatchdog(
            inflight=lambda: self.outstanding,
            graph=lambda: build_wait_graph(self),
        )
        self._watchdog = watchdog
        self.engine.attach_watchdog(watchdog)

    def _attach_sanitizer(self) -> None:
        from repro.analysis.sanitizer import ResourceLedger

        ledger = ResourceLedger(clock=lambda: self.engine.now)
        self._ledger = ledger
        self.engine.attach_sanitizer(ledger)
        for i, mshr in enumerate(self.l1_mshrs):
            mshr.ledger = ledger
            mshr.ledger_scope = f"l1-mshr[{i}]"
        for s in self.l2_slices:
            s.mshr.ledger = ledger
            s.mshr.ledger_scope = f"l2-mshr[{s.slice_id}]"
        for cache in self.l1_caches:
            cache.ledger = ledger
        for xb in (
            self.topo.noc1_req + self.topo.noc1_rep
            + self.topo.noc2_req + self.topo.noc2_rep
            + self.topo.cdx2_req + self.topo.cdx2_rep
        ):
            xb.attach_sanitizer(ledger)
        # Bank/channel servers: reservation validation plus the holder
        # mirror the stall watchdog's wait graph reads.
        for bank in self.l1_banks + self.l2_banks:
            bank.attach_sanitizer(ledger)
        for mc in self.mcs:
            mc.attach_sanitizer(ledger)

    # ------------------------------------------------------------------ build

    def _build_l1_level(self) -> None:
        gpu, spec = self.cfg.gpu, self.spec
        self.l1_directory = ReplicationDirectory()
        if self.decoupled:
            count = self.geometry.num_dcl1
            size = gpu.dcl1_size_bytes(count, spec.l1_size_mult)
            if spec.kind == DesignKind.SINGLE_L1:
                # Section II-A's idealization keeps the baseline latency and
                # the aggregate bank bandwidth.
                latency = gpu.l1_latency
                bank_service = 1.0 / gpu.num_cores
            else:
                latency = gpu.l1_level_latency(size)
                bank_service = 1.0
            mshr_entries = gpu.l1_mshr_entries * max(1, gpu.num_cores // count)
            index_divisor = self.geometry.dcl1_per_cluster
        else:
            count = gpu.num_cores
            size = int(gpu.l1_size_bytes * spec.l1_size_mult)
            size = max(gpu.l1_assoc * gpu.line_bytes, size)
            latency = gpu.l1_level_latency(size)
            bank_service = 1.0
            mshr_entries = gpu.l1_mshr_entries
            index_divisor = 1
        if self.cfg.l1_latency_override is not None:
            latency = self.cfg.l1_latency_override
        self.l1_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(
                name=f"L1[{i}]",
                size_bytes=size,
                assoc=gpu.l1_assoc,
                line_bytes=gpu.line_bytes,
                policy=self.cfg.l1_policy,
                cache_id=i,
                directory=self.l1_directory,
                perfect=spec.perfect_l1,
                index_divisor=index_divisor,
            )
            for i in range(count)
        ]
        self.l1_banks: List[Server] = [
            Server(f"L1bank[{i}]", bank_service, latency) for i in range(count)
        ]
        self.l1_mshrs: List[MSHRFile] = [MSHRFile(mshr_entries) for _ in range(count)]
        if self.cfg.l1_bypass:
            from repro.cache.bypass import StreamingBypassFilter

            self.l1_filters = [StreamingBypassFilter() for _ in range(count)]
        else:
            self.l1_filters = None

    def _build_topology(self) -> None:
        from repro.noc.topology import NoCTopology

        gpu = self.cfg.gpu
        self.topo = NoCTopology(
            self.spec,
            gpu.num_cores,
            gpu.num_l2_slices,
            gpu.noc_cycles_per_flit,
            gpu.noc_latency,
            geometry=self.geometry,
            cdxbar_group_size=gpu.cdxbar_group_size,
            cdxbar_columns=gpu.cdxbar_columns,
            short_link_mm=gpu.short_link_mm,
            long_link_mm=gpu.long_link_mm,
        )

    def _build_l2_and_memory(self) -> None:
        gpu = self.cfg.gpu
        self.l2_slices = [
            L2Slice(
                s,
                gpu.l2_slice_bytes,
                gpu.l2_assoc,
                gpu.line_bytes,
                mshr_entries=gpu.l2_mshr_entries,
                policy=self.cfg.l2_policy,
                num_slices=gpu.num_l2_slices,
            )
            for s in range(gpu.num_l2_slices)
        ]
        self.l2_banks = [
            Server(f"L2bank[{s}]", gpu.l2_service, gpu.l2_latency)
            for s in range(gpu.num_l2_slices)
        ]
        self.mcs = [
            MemoryController(c, gpu.dram_service, gpu.dram_latency, gpu.dram_bank_groups)
            for c in range(gpu.num_channels)
        ]

    def _build_cores(self) -> None:
        gpu = self.cfg.gpu
        prof = self.workload.profile
        self.cores = [
            CoreState(c, prof.wavefront_slots, prof.compute_gap, prof.mlp)
            for c in range(gpu.num_cores)
        ]
        scheduler = make_scheduler(self.cfg.cta_scheduler)
        weights = self.workload.core_weights(gpu.num_cores)
        queues = scheduler.assign(self.workload.num_ctas, gpu.num_cores, weights)
        for core, queue in zip(self.cores, queues):
            core.assign_ctas(queue)

    # ------------------------------------------------------------------- run

    def run(self) -> SimResult:
        """Execute the simulation to completion and return its result."""
        if self._ran:
            raise RuntimeError("GPUSystem instances are single-use; build a new one")
        self._ran = True
        seeds = []
        for core in self.cores:
            for wf in core.slots:
                stream = core.next_stream(self.workload.streams)
                if stream is not None:
                    wf.bind(stream)
                    core.active_wavefronts += 1
                    seeds.append(wf)
        # Vector seeding: identical to one schedule() per wavefront in
        # the same order (consecutive seqs), minus the per-call overhead.
        self.engine.schedule_batch(0.0, self._wf_issue, seeds)
        # Wall-clock observability only — never part of the result's
        # fingerprint (see repro.sim.results._OBSERVABILITY_FIELDS).
        # GC pause for the drain: the steady-state event loop recycles
        # requests through the free list and never drops reference
        # cycles, so collector sweeps over the (large, static) object
        # graph are pure overhead.  Restored unconditionally — a raising
        # run must not leave the collector off for the caller.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        t0 = perf_counter()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        wall = perf_counter() - t0
        if self._watchdog is not None and self.outstanding != 0:
            # Checked before the ledger's drain assertion: a wedged drain
            # should surface as a wait-graph-carrying SimStallError (who
            # holds what, who waits on what), not as a bare leak list.
            self._watchdog.drained(self.engine.now)
        if self._ledger is not None:
            # Checked before the bare outstanding-count guard below: a
            # leak that strands requests should surface as an attributed
            # per-resource report, not as an opaque count mismatch.
            self._ledger.assert_drained()
        if self.outstanding != 0:
            raise RuntimeError(
                f"simulation drained with {self.outstanding} requests outstanding"
            )
        self._collect()
        self.result.wall_time_s = wall
        self.result.events_per_s = (
            self.engine.events_processed / wall if wall > 0 else 0.0
        )
        return self.result

    # -------------------------------------------------------- wavefront side

    def _schedule_issue(self, wf: Wavefront, t: float) -> None:
        """Arrange for ``wf`` to attempt its next issue at ``t`` (idempotent)."""
        if not wf.issue_pending:
            wf.issue_pending = True
            self.schedule(t, self._wf_issue, wf)

    def _wf_issue(self, wf: Wavefront) -> None:
        wf.issue_pending = False
        access = wf.next_access()
        if access is None:
            # Stream exhausted: refill once the last reply lands.
            if wf.outstanding == 0:
                self._wf_refill(wf)
            return
        line, kind = access
        core = self.cores[wf.core_id]
        core.count_access(wf.compute_gap)
        # The core's single issue pipeline carries the memory instruction
        # plus this wavefront's trailing ALU instructions, so one memory
        # access occupies it for 1 + compute_gap cycles — this is what
        # bounds per-core L1 demand the way a real SIMT front-end does.
        # (The issue port never carries a ledger or an owner, so the fast
        # reservation is always equivalent.)
        t = core.issue_port.reserve_fast(self.engine.now, 1.0 + wf.compute_gap)
        if kind == _LOAD and self._fast:
            self._issue_load_fast(wf, line, t)
        else:
            self._issue_cold(wf, line, kind, t)

    def _issue_load_fast(self, wf: Wavefront, line: int, t: float) -> None:
        """Lean LOAD issue path (uninstrumented runs; the dominant kind).

        Same schedule-call order as :meth:`_issue_cold` — the MLP-headroom
        re-issue is enqueued *before* the route hop, so same-cycle FIFO
        ties break identically in both paths.
        """
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.l1_hit = False
            req.l2_hit = False
            req.merged = False
        else:
            req = MemoryRequest(0, _LOAD, self._request_bytes, 0)
        req.addr = line << self._line_bits
        req.kind = _LOAD
        req.core_id = wf.core_id
        req.wavefront = wf
        req.issue_time = t
        req.line = line
        l2 = line % self._num_l2_slices
        req.l2_id = l2
        req.mc_id = l2 // self._slices_per_chan
        self.outstanding += 1
        self._n_loads += 1
        wf.outstanding += 1
        if wf.outstanding < wf.mlp:
            self._schedule_issue(wf, t)
        if self.decoupled:
            home = self._home_of(wf.core_id, line)
            req.dcl1_id = home
            if self._node_credits is None:
                self.schedule(
                    self._rt_core_to_dcl1(t, wf.core_id, home, 1), self._l1_access, req
                )
            else:
                self._enter_node(req, t)
        else:
            self.schedule(t, self._l1_access, req)

    def _issue_cold(self, wf: Wavefront, line: int, kind: int, t: float) -> None:
        """Issue path for STORE/ATOMIC/BYPASS and every instrumented run."""
        if self._fast and self._req_pool:
            req = self._req_pool.pop().reinit(
                line << self._line_bits, kind, self._request_bytes, wf.core_id
            )
        else:
            req = MemoryRequest(line << self._line_bits, kind, self._request_bytes, wf.core_id)
        req.line = line
        l2 = line % self._num_l2_slices
        req.l2_id = l2
        req.mc_id = l2 // self._slices_per_chan
        req.wavefront = wf
        req.issue_time = t
        self.outstanding += 1
        if self._ledger is not None:
            # The ledger keeps a reference to req, so the id() key cannot
            # be recycled while the hold is live.
            self._ledger.acquire("request", id(req), req)
        if kind == _LOAD:
            self._n_loads += 1
        elif kind == _STORE:
            self._n_stores += 1
        elif kind == _ATOMIC:
            self._n_atomics += 1
        else:
            self._n_bypasses += 1

        if kind != _STORE:
            wf.outstanding += 1
        # Keep issuing while the wavefront has MLP headroom (stores never
        # block, so they always leave headroom).
        if wf.outstanding < wf.mlp:
            self._schedule_issue(wf, t)

        if self.decoupled:
            req.dcl1_id = self._home_of(wf.core_id, line)
            self._enter_node(req, t)
        else:
            if kind == _ATOMIC or kind == _BYPASS:
                t2 = self._rt_to_l2(t, wf.core_id, l2, 1)
                self.schedule(t2, self._at_l2, req)
            else:
                self.schedule(t, self._l1_access, req)

    def _wf_refill(self, wf: Wavefront) -> None:
        core = self.cores[wf.core_id]
        stream = core.next_stream(self.workload.streams)
        if stream is not None:
            wf.bind(stream)
            self._wf_issue(wf)
        else:
            core.active_wavefronts -= 1
            core.finish_time = self.engine.now

    # ---------------------------------------------------- SimVec fused handlers

    def _make_fused_handlers(self):
        """Build fused per-event handlers for the single-cluster decoupled
        fast shape (the paper's ShY family at Z = 1, credits/filters off,
        LRU, interleaved homes — what the headline Sh40 runs are), or
        ``None`` when any feature the fusion elides is active.  Called
        only on fast wiring with fused dispatch enabled.

        Returns the replacements for ``_wf_issue``, ``_l1_access`` and
        ``_complete``, named after them (``repro profile`` prints their
        qualnames).  Each fuses its handler's whole pipeline — stream
        advance, issue-port reservation, NoC#1 hop, cache probe, reply
        hop and the event push — with every per-design decision resolved
        here, at wiring time.  Each inlined block mirrors its canonical
        twin statement for statement:

        * port reservations — ``Server.reserve_fast``;
        * crossbar hops — ``Crossbar.traverse_fast`` (request flits are
          always 1, so the ``service * flits`` multiply is elided there;
          bit-exact under IEEE-754);
        * home lookup — the ``interleave`` branch of
          ``HomeMapper.make_fast_home_of`` with the Z = 1 cluster term
          dropped (``core_id // n * m == 0``);
        * cache probe — ``SetAssociativeCache.access_load`` with the
          LRU set's ``OrderedDict`` addressed directly;
        * event pushes — ``Engine.schedule``'s bucket append, pushing
          the fused handlers themselves.  The validation branch is
          vacuous here: every push time sits at the far end of a
          strictly-positive occupancy chain starting at ``now``, so it
          is finite and never in the past.

        Equivalence with the scalar handlers is enforced by the SimVec
        differential confirmer (``force_scalar_dispatch``) and the
        fingerprint-identity tests.  The one shape the fusion does not
        handle, an issue whose next access is not a LOAD or whose stream
        is exhausted, goes to the scalar ``_wf_issue`` before any state
        changes.
        """
        if not self.decoupled:
            return None
        if self._node_credits is not None or self.l1_filters is not None:
            return None
        geo = self.geometry
        topo = self.topo
        if len(topo.noc1_req) != 1 or geo.cores_per_cluster != topo.num_cores:
            return None
        if self.home.strategy != "interleave":
            return None
        c0 = self.l1_caches[0]
        for c in self.l1_caches:
            if (
                c.perfect
                or c.policy_name != "lru"
                or c.index_divisor != c0.index_divisor
                or c._set_mask != c0._set_mask
            ):
                return None

        sysm = self
        eng = self.engine
        heap = eng._heap
        buckets = eng._buckets
        hpush = _heappush
        m = geo.dcl1_per_cluster
        line_bits = self._line_bits
        num_l2 = self._num_l2_slices
        spc = self._slices_per_chan
        req_bytes = self._request_bytes
        load = _LOAD
        store = _STORE
        # Built once per wiring, outside the per-event bodies.
        ports = [c.issue_port for c in self.cores]
        cores_list = self.cores
        pool = self._req_pool
        l1_miss = self._l1_miss
        at_l2_cb = self._at_l2
        # The scalar method: _wire_hot_path installs the closures below
        # over it only after this returns.
        scalar_issue = self._wf_issue
        req_xb = topo.noc1_req[0]
        qin = req_xb._in
        qout = req_xb._out
        rep_xb = topo.noc1_rep[0]
        rin = rep_xb._in
        rout = rep_xb._out
        reply_flits = self._noc1_reply_flits
        caches = self.l1_caches
        banks = self.l1_banks
        div = c0.index_divisor
        strip = div > 1
        smask = c0._set_mask
        rt_to_l2 = self._rt_to_l2
        req_flits = self._req_flits
        line_flits = self._line_flits

        def _wf_issue(wf):
            if wf.done or wf._kinds[wf.pc] != load:
                # Exhausted stream or a non-LOAD access: the scalar
                # handler, before any state changes.
                scalar_issue(wf)
                return
            wf.issue_pending = False
            pc = wf.pc
            line = wf._lines[pc]
            pc += 1
            wf.pc = pc
            if pc >= wf._length:
                wf.done = True
            c = wf.core_id
            # Issue-port reservation (Server.reserve_fast).
            now = eng.now
            srv = ports[c]
            nf = srv.next_free
            start = now if now > nf else nf
            occ = srv.service * wf._issue_size
            srv.next_free = start + occ
            srv.busy_cycles += occ
            srv.num_served += 1
            t = start + occ + srv.latency
            # CoreState.count_access (_instr_inc is 1 + int(gap)).
            core = cores_list[c]
            core.mem_instructions += 1
            core.instructions += wf._instr_inc
            if pool:
                req = pool.pop()
                req.l1_hit = False
                req.l2_hit = False
                req.merged = False
            else:
                req = MemoryRequest(0, load, req_bytes, 0)
            l2 = line % num_l2
            home = line % m
            req.addr = line << line_bits
            req.kind = load
            req.core_id = c
            req.wavefront = wf
            req.issue_time = t
            req.line = line
            req.l2_id = l2
            req.mc_id = l2 // spc
            req.dcl1_id = home
            sysm.outstanding += 1
            sysm._n_loads += 1
            wf.outstanding += 1
            # (_schedule_issue's issue_pending guard is vacuous here: it
            # was cleared above and nothing set it since.)
            if wf.outstanding < wf.mlp:
                wf.issue_pending = True
                key = (t, 0)
                b = buckets.get(key)
                if b is None:
                    buckets[key] = [_wf_issue, wf]
                    hpush(heap, key)
                else:
                    b.append(_wf_issue)
                    b.append(wf)
            # NoC#1 request hop, one flit (Crossbar.traverse_fast).
            p = qin[c]
            nf = p.next_free
            sx = t if t > nf else nf
            occ = p.service
            p.next_free = sx + occ
            p.busy_cycles += occ
            p.num_served += 1
            t1 = sx + occ + p.latency
            p = qout[home]
            nf = p.next_free
            sx = t1 if t1 > nf else nf
            occ = p.service
            p.next_free = sx + occ
            p.busy_cycles += occ
            p.num_served += 1
            req_xb.flit_hops += 1
            arr = sx + occ + p.latency
            key = (arr, 0)
            b = buckets.get(key)
            if b is None:
                buckets[key] = [_l1_access, req]
                hpush(heap, key)
            else:
                b.append(_l1_access)
                b.append(req)

        def _l1_access(req):
            idx = req.dcl1_id
            # DC-L1 bank reservation (Server.reserve_fast).
            now = eng.now
            srv = banks[idx]
            nf = srv.next_free
            start = now if now > nf else nf
            occ = srv.service
            srv.next_free = start + occ
            srv.busy_cycles += occ
            srv.num_served += 1
            t = start + occ + srv.latency
            cache = caches[idx]
            if req.kind == load:
                line = req.line
                # SetAssociativeCache.access_load over the LRU set.
                od = cache._sets[
                    ((line // div) & smask) if strip else (line & smask)
                ]._order
                if line in od:
                    od.move_to_end(line)
                    cache.stats.load_hits += 1
                    req.l1_hit = True
                    # NoC#1 reply hop (Crossbar.traverse_fast).
                    p = rin[idx]
                    nf = p.next_free
                    sx = t if t > nf else nf
                    occ = p.service * reply_flits
                    p.next_free = sx + occ
                    p.busy_cycles += occ
                    p.num_served += 1
                    t1 = sx + occ + p.latency
                    p = rout[req.core_id]
                    nf = p.next_free
                    sx = t1 if t1 > nf else nf
                    occ = p.service * reply_flits
                    p.next_free = sx + occ
                    p.busy_cycles += occ
                    p.num_served += 1
                    rep_xb.flit_hops += reply_flits
                    t2 = sx + occ + p.latency
                    key = (t2, 0)
                    b = buckets.get(key)
                    if b is None:
                        buckets[key] = [_complete, req]
                        hpush(heap, key)
                    else:
                        b.append(_complete)
                        b.append(req)
                else:
                    # access_load's miss branch, directory included
                    # (replication-ratio metric; shared DC-L1 levels
                    # always carry one).
                    stats = cache.stats
                    stats.load_misses += 1
                    d = cache.directory
                    if d is not None and d.held_elsewhere(line, cache.cache_id):
                        stats.replicated_misses += 1
                    l1_miss(req, t, idx)
            else:
                # STORE: write-evict + no-write-allocate, always to L2 —
                # same statements as the scalar handler's branch.
                hit = cache.access_store(req.line)
                req.l1_hit = hit
                flits = req_flits + (line_flits if hit else 0)
                t2 = rt_to_l2(t, idx, req.l2_id, flits)
                key = (t2, 0)
                b = buckets.get(key)
                if b is None:
                    buckets[key] = [at_l2_cb, req]
                    hpush(heap, key)
                else:
                    b.append(at_l2_cb)
                    b.append(req)

        def _complete(req):
            # _complete's fast body, with _schedule_issue's push inlined.
            now = eng.now
            sysm.outstanding -= 1
            kind = req.kind
            if kind == load:
                sysm._rtt_sum += now - req.issue_time
                sysm._rtt_count += 1
            if kind != store:
                wf = req.wavefront
                wf.outstanding -= 1
                if not wf.issue_pending:
                    wf.issue_pending = True
                    key = (now, 0)
                    b = buckets.get(key)
                    if b is None:
                        buckets[key] = [_wf_issue, wf]
                        hpush(heap, key)
                    else:
                        b.append(_wf_issue)
                        b.append(wf)
            req.wavefront = None
            pool.append(req)

        return _wf_issue, _l1_access, _complete

    # ---------------------------------------------------------- node admission

    def _enter_node(self, req: MemoryRequest, t: float) -> None:
        """Admit a request into its home DC-L1 node, honouring Q1 credits
        when finite node queues are enabled."""
        credits = self._node_credits
        if credits is None:
            self._dispatch_to_node(req, t)
            return
        n = req.dcl1_id
        if credits[n] > 0:
            credits[n] -= 1
            if self._ledger is not None:
                self._ledger.acquire("dcl1-q1", (n, id(req)), req)
                self._note(req, f"admitted to dcl1-q1[{n}]")
            self._dispatch_to_node(req, t)
        else:
            self._node_waiters[n].append(req)
            self._n_node_queue_stalls += 1
            if self._ledger is not None:
                self._note(req, f"parked waiting for a dcl1-q1[{n}] credit")

    def _dispatch_to_node(self, req: MemoryRequest, t: float) -> None:
        flits = self._req_flits if req.kind == _STORE else 1
        t1 = self._rt_core_to_dcl1(t, req.core_id, req.dcl1_id, flits)
        kind = req.kind
        if kind == _ATOMIC or kind == _BYPASS:
            # Q1 -> Q3 pass-through: no DC-L1$ access; the Q1 slot frees as
            # soon as the request moves on toward L2.
            t2 = self._rt_to_l2(t1, req.dcl1_id, req.l2_id, 1)
            self.schedule(t2, self._at_l2, req)
            if self._node_credits is not None:
                # Release-before-acquire: a Q1 credit freed at t1 must be
                # visible to any _l1_access arriving at the same cycle, so
                # the order is declared with a priority, not call order.
                self.schedule(t1, self._release_node, req, priority=-1)
        else:
            self.schedule(t1, self._l1_access, req)

    def _release_node(self, req: MemoryRequest) -> None:
        """Free the Q1 slot held by ``req``; admit the oldest waiter if any
        (the freed credit transfers directly to the admitted waiter)."""
        if self._node_credits is None:
            return
        n = req.dcl1_id
        if self._ledger is not None:
            self._ledger.release("dcl1-q1", (n, id(req)))
        waiters = self._node_waiters[n]
        if waiters:
            nxt = waiters.popleft()
            if self._ledger is not None:
                self._ledger.acquire("dcl1-q1", (n, id(nxt)), nxt)
            self._dispatch_to_node(nxt, self.engine.now)
        else:
            self._node_credits[n] += 1

    # ---------------------------------------------------------- L1-level side

    def _l1_index(self, req: MemoryRequest) -> int:
        return req.dcl1_id if self.decoupled else req.core_id

    def _l1_access(self, req: MemoryRequest) -> None:
        idx = req.dcl1_id if self.decoupled else req.core_id
        now = self.engine.now
        if self._fast:
            t = self._l1_reserve[idx](now)
        else:
            self._note(req, f"L1[{idx}] bank access")
            t = self.l1_banks[idx].reserve(now, owner=req)
        if self._node_credits is not None:
            # The request leaves Q1 once the (pipelined) bank accepts it —
            # occupancy, not access latency, holds the queue slot.  The
            # priority declares release-before-acquire against same-cycle
            # _l1_access arrivals (see _dispatch_to_node).
            free_at = max(now, t - self.l1_banks[idx].latency)
            self.schedule(free_at, self._release_node, req, priority=-1)
        cache = self.l1_caches[idx]
        filters = self.l1_filters
        if req.kind == _LOAD:
            if cache.access_load(req.line):
                req.l1_hit = True
                if filters is not None:
                    filters[idx].on_hit(req.line)
                # _l1_reply, inlined for the (dominant) hit case.
                if self.decoupled:
                    t = self._rt_dcl1_to_core(
                        t, idx, req.core_id, self._noc1_reply_flits
                    )
                self.schedule(t, self._complete, req)
            else:
                self._l1_miss(req, t, idx)
        else:  # STORE: write-evict + no-write-allocate, always to L2
            hit = cache.access_store(req.line)
            req.l1_hit = hit
            if hit and filters is not None:
                filters[idx].on_evict(req.line)
            flits = self._req_flits + (self._line_flits if hit else 0)
            src = idx if self.decoupled else req.core_id
            t2 = self._rt_to_l2(t, src, req.l2_id, flits)
            self.schedule(t2, self._at_l2, req)

    def _l1_miss(self, req: MemoryRequest, t: float, idx: int) -> None:
        outcome = self.l1_mshrs[idx].allocate(req.line, req)
        if self._ledger is not None:
            self._note(req, f"L1[{idx}] miss ({outcome})")
        if outcome == "new":
            src = idx if self.decoupled else req.core_id
            t2 = self._rt_to_l2(t, src, req.l2_id, 1)
            self.schedule(t2, self._at_l2, req)
        elif outcome == "merged":
            req.merged = True
        # "stalled": the request sits in the MSHR's stall queue and is
        # re-injected by _l1_fill after an entry frees.

    def _l1_reply(self, req: MemoryRequest, t: float) -> None:
        """Deliver a load's data to its core (NoC#1 hop when decoupled)."""
        if self.decoupled:
            t = self._rt_dcl1_to_core(t, req.dcl1_id, req.core_id, self._noc1_reply_flits)
        self.schedule(t, self._complete, req)

    def _l1_fill(self, req: MemoryRequest) -> None:
        """A load fill arrived back at the L1 level (Q4): install, wake the
        merged waiters, reply to every requesting core."""
        now = self.engine.now
        idx = self._l1_index(req)
        cache = self.l1_caches[idx]
        if self.l1_filters is not None:
            fil = self.l1_filters[idx]
            if fil.should_install():
                victim = cache.install(req.line)
                fil.on_install(req.line)
                if victim is not None:
                    fil.on_evict(victim)
            else:
                self._n_bypassed_fills += 1
        else:
            cache.install(req.line)
        mshr = self.l1_mshrs[idx]
        for waiter in mshr.release(req.line):
            self._l1_reply(waiter, now)
        self._drain_l1_stalls(idx, now)

    def _drain_l1_stalls(self, idx: int, now: float) -> None:
        """Replay stalled requests into freed MSHR entries.

        Replays allocate synchronously (one bank replay per freed entry),
        so a full MSHR costs each stalled request one replay — not a
        retry storm racing for the same entry.
        """
        mshr = self.l1_mshrs[idx]
        cache = self.l1_caches[idx]
        while mshr.has_stalled() and not mshr.full:
            retry = mshr.pop_stalled()
            if self._fast:
                t = self._l1_reserve[idx](now)
            else:
                t = self.l1_banks[idx].reserve(now, owner=retry)
            if cache.access_load(retry.line):
                retry.l1_hit = True
                if self.l1_filters is not None:
                    self.l1_filters[idx].on_hit(retry.line)
                self._l1_reply(retry, t)
                continue
            outcome = mshr.allocate(retry.line, retry)
            if outcome == "new":
                src = idx if self.decoupled else retry.core_id
                t2 = self._rt_to_l2(t, src, retry.l2_id, 1)
                self.schedule(t2, self._at_l2, retry)
            elif outcome == "stalled":
                break

    # ----------------------------------------------------------- L2 and DRAM

    def _charge_writebacks(self, s: int, t: float) -> None:
        """Charge DRAM bandwidth for dirty L2 victims (fire-and-forget)."""
        slice_ = self.l2_slices[s]
        channel = self.mcs[s // self._slices_per_chan]
        for victim in slice_.drain_writebacks():
            channel.access(t, victim)
            self._n_dram_writebacks += 1

    def _at_l2(self, req: MemoryRequest) -> None:
        s = req.l2_id
        slice_ = self.l2_slices[s]
        now = self.engine.now
        fast = self._fast
        if not fast:
            self._note(req, f"at L2 slice {s}")
        kind = req.kind
        if kind == _STORE:
            t = self._l2_reserve[s](now) if fast else self.l2_banks[s].reserve(now, owner=req)
            slice_.access_store(req.line)
            self._charge_writebacks(s, t)
            self._reply_from_l2(req, t)
        elif kind == _ATOMIC:
            # Read-modify-write at the L2/MC: double bank occupancy, DRAM
            # fill on miss, no MSHR merging (atomics serialize).
            if fast:
                t = self._l2_reserve[s](now, 2.0)
            else:
                t = self.l2_banks[s].reserve(now, 2.0, owner=req)
            if slice_.access_load(req.line):
                req.l2_hit = True
                self._reply_from_l2(req, t)
            else:
                t2 = self.mcs[req.mc_id].access(t, req.line, owner=req)
                self._n_dram_accesses += 1
                slice_.install(req.line)
                self._charge_writebacks(s, t)
                self._reply_from_l2(req, t2)
        else:  # LOAD or BYPASS fill
            t = self._l2_reserve[s](now) if fast else self.l2_banks[s].reserve(now, owner=req)
            if slice_.access_load(req.line):
                req.l2_hit = True
                self._reply_from_l2(req, t)
            else:
                outcome = slice_.mshr.allocate(req.line, req)
                if outcome == "new":
                    t2 = self.mcs[req.mc_id].access(t, req.line, owner=req)
                    self._n_dram_accesses += 1
                    # Fill-before-access: a DRAM fill landing at the same
                    # cycle as a demand access to its L2 slice installs
                    # first (see the SimRace note in DESIGN/docs).
                    self.schedule(t2, self._dram_fill, req, priority=-1)
                elif outcome == "merged":
                    req.merged = True

    def _dram_fill(self, req: MemoryRequest) -> None:
        now = self.engine.now
        slice_ = self.l2_slices[req.l2_id]
        slice_.install(req.line)
        self._charge_writebacks(req.l2_id, now)
        for waiter in slice_.mshr.release(req.line):
            self._reply_from_l2(waiter, now)
        self._drain_l2_stalls(req.l2_id, now)

    def _drain_l2_stalls(self, s: int, now: float) -> None:
        """Replay stalled L2 requests into freed MSHR entries (see
        :meth:`_drain_l1_stalls` for why this is synchronous)."""
        slice_ = self.l2_slices[s]
        mshr = slice_.mshr
        while mshr.has_stalled() and not mshr.full:
            retry = mshr.pop_stalled()
            if self._fast:
                t = self._l2_reserve[s](now)
            else:
                t = self.l2_banks[s].reserve(now, owner=retry)
            if slice_.access_load(retry.line):
                retry.l2_hit = True
                self._reply_from_l2(retry, t)
                continue
            outcome = mshr.allocate(retry.line, retry)
            if outcome == "new":
                t2 = self.mcs[retry.mc_id].access(t, retry.line, owner=retry)
                self._n_dram_accesses += 1
                self.schedule(t2, self._dram_fill, retry, priority=-1)
            elif outcome == "stalled":
                break

    def _reply_from_l2(self, req: MemoryRequest, t: float) -> None:
        """Route an L2 reply (fill / ACK / atomic result) back up."""
        if self._ledger is not None:
            self._note(req, f"reply from L2 slice {req.l2_id}")
        kind = req.kind
        if kind == _LOAD or kind == _BYPASS:
            flits = self._line_flits  # fills carry the whole line
        else:
            flits = 1  # store ACK / atomic result
        dst = req.dcl1_id if self.decoupled else req.core_id
        t2 = self._rt_from_l2(t, req.l2_id, dst, flits)
        if kind == _LOAD:
            # Fill-before-access: a Q4 fill landing at the same cycle as a
            # demand access to its L1 node installs (and replays stalled
            # MSHR requests) first, so the same-cycle outcome is a policy,
            # not an accident of schedule() call order.
            self.schedule(t2, self._l1_fill, req, priority=-1)
        else:
            if self.decoupled:
                # ACK / atomic / bypass replies ride NoC#1 back to the core
                # (Q4 -> Q2 pass-through for non-L1 traffic).
                up_flits = self._line_flits if kind == _BYPASS else 1
                t3 = self._rt_dcl1_to_core(t2, req.dcl1_id, req.core_id, up_flits)
                self.schedule(t3, self._complete, req)
            else:
                self.schedule(t2, self._complete, req)

    # ------------------------------------------------------------- completion

    def _note(self, req: MemoryRequest, message: str) -> None:
        """Hop-trace breadcrumb on the request's ledger hold (single
        ``is None`` check when the sanitizer is off)."""
        if self._ledger is not None:
            self._ledger.note("request", id(req), message)

    def _complete(self, req: MemoryRequest) -> None:
        now = self.engine.now
        self.outstanding -= 1
        kind = req.kind
        if self._fast:
            # Lean path: the request is dead after this handler, so it
            # goes back on the free list (recycling is safe here and only
            # here — no ledger holds id(req), and the last event carrying
            # it as a payload is this one).
            if kind == _LOAD:
                self._rtt_sum += now - req.issue_time
                self._rtt_count += 1
                wf = req.wavefront
                wf.outstanding -= 1
                self._schedule_issue(wf, now)
            elif kind != _STORE:
                wf = req.wavefront
                wf.outstanding -= 1
                self._schedule_issue(wf, now)
            req.wavefront = None
            self._req_pool.append(req)
            return
        if self._watchdog is not None:
            self._watchdog.progress(now)
        if self._ledger is not None:
            self._ledger.release("request", id(req))
            self._sanitized_completions += 1
            if self._sanitized_completions % 4096 == 0:
                self._live_audit()
        if kind == _LOAD:
            self._rtt_sum += now - req.issue_time
            self._rtt_count += 1
        if kind != _STORE:
            wf = req.wavefront
            wf.outstanding -= 1
            self._schedule_issue(wf, now)

    def _live_audit(self) -> None:
        """Continuous (mid-run) audit in sanitize mode: structural checks
        that must hold at every point of the run, not only at drain (the
        in-flight counterpart of :func:`repro.sim.validation.audit`)."""
        from repro.sim.validation import live_audit

        findings = live_audit(self)
        tracked = self._ledger.outstanding("request")
        if tracked != self.outstanding:
            findings.append(
                f"ledger tracks {tracked} in-flight requests "
                f"but system.outstanding={self.outstanding}"
            )
        if findings:
            self._ledger.violation("live audit failed:\n  " + "\n  ".join(findings))

    # -------------------------------------------------------------- collect

    def _collect(self) -> None:
        res = self.result
        cycles = self.engine.now
        res.cycles = cycles
        res.instructions = sum(c.instructions for c in self.cores)

        # Flush the batched hot-path counters (accumulated in the same
        # order the original per-event increments ran, so the float RTT
        # sum is bit-identical).
        res.loads = self._n_loads
        res.stores = self._n_stores
        res.atomics = self._n_atomics
        res.bypasses = self._n_bypasses
        res.dram_accesses = self._n_dram_accesses
        res.dram_writebacks = self._n_dram_writebacks
        res.node_queue_stalls = self._n_node_queue_stalls
        res.bypassed_fills = self._n_bypassed_fills
        res.load_rtt_sum = self._rtt_sum
        res.load_rtt_count = self._rtt_count

        for cache in self.l1_caches:
            res.l1.merge(cache.stats)
        misses = res.l1.misses
        res.replication_ratio = res.l1.replicated_misses / misses if misses else 0.0
        res.mean_replicas = self.l1_directory.mean_replicas_sampled()

        for slice_ in self.l2_slices:
            res.l2.merge(slice_.stats)

        if cycles > 0:
            utils = [b.utilization(cycles) for b in self.l1_banks]
            # Normalize DC-L1 bank utilization to requests-per-cycle against
            # the bank's peak (service may be < 1 for the SingleL1 ideal).
            res.l1_port_util_max = max(utils)
            res.l1_port_util_mean = sum(utils) / len(utils)
            res.core_reply_link_util_max = self.topo.max_core_reply_link_utilization(cycles)
            res.dram_util_mean = sum(mc.utilization(cycles) for mc in self.mcs) / len(self.mcs)

        for xb in self.topo.noc1_req + self.topo.noc1_rep:
            res.noc_traffic.append((xb.flit_hops, xb.link_mm, self.spec.noc1_freq_mult))
        for xb in self.topo.noc2_req + self.topo.noc2_rep + self.topo.cdx2_req + self.topo.cdx2_rep:
            res.noc_traffic.append((xb.flit_hops, xb.link_mm, self.spec.noc2_freq_mult))

        for mshr in self.l1_mshrs:
            res.mshr_primary += mshr.primary_misses
            res.mshr_secondary += mshr.secondary_misses
            res.mshr_stalls += mshr.stall_events


def simulate(
    workload: Union[Workload, AppProfile],
    spec: DesignSpec,
    config: Optional[SimConfig] = None,
) -> SimResult:
    """Build and run one simulation; the one-call public entry point."""
    return GPUSystem(workload, spec, config).run()
