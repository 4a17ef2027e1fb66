"""The streaming-multiprocessor cycle model.

One :class:`StreamingMultiprocessor` replays a :class:`KernelTrace`
cycle by cycle through the stages of Figure 1a:

1. **writeback** — memory values arrive, execution pipelines drain,
   scoreboards release completed producers;
2. **warp management** — finished warps free their slots, queued warps
   launch (successive thread blocks refilling the SM);
3. **fetch/decode** — round-robin fill of per-warp I-buffers;
4. **classification** — each resident warp's head instruction is sorted
   into the pending set (blocked on a long-latency memory event) or the
   active set, with its ready bit and type counters (the two-level
   scheduler's data structures, plus GATES' ACTV counters);
5. **issue** — the plugged-in scheduler orders the ready warp slots; the
   SM walks that order, resolving structural and power-gating hazards,
   until the dual-issue width is filled;
6. **power-gating update** — every pipeline reports busy/idle to its
   idle-period tracker and (if gated) its gating domain; epoch hooks
   (Adaptive idle-detect) tick last.

Schedulers and gating policies are injected, so every technique in the
paper — and every ablation — runs on the identical substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.optypes import (ALL_OP_CLASSES, CUDA_CORE_CLASSES,
                               ExecUnitKind, OpClass, UNIT_FOR_OP_CLASS)
from repro.isa.trace import KernelTrace
from repro.obs.bus import EventBus
from repro.obs.events import IssueStall, KernelBoundary
from repro.obs.metrics import MetricsRegistry
from repro.power.energy import DomainEnergy
from repro.power.gating import DomainState, GatingDomain, GatingStats
from repro.sim.config import SMConfig
from repro.sim.exec_units import ExecPipeline
from repro.sim.frontend import (
    FetchEngine,
    MultiKernelLauncher,
    WarpContext,
    WarpLauncher,
)
from repro.sim.memory import MemoryStats, MemorySubsystem
from repro.sim.regfile import RegisterFileModel
from repro.sim.sched.base import SchedulerView, WarpScheduler
from repro.sim.stats import SMStats


class CycleHook(Protocol):
    """Anything ticked once per cycle after the PG update (e.g. the
    Adaptive idle-detect epoch controller)."""

    def on_cycle(self, cycle: int) -> None: ...


@dataclass(frozen=True)
class WarpRecord:
    """Lifetime of one launched warp (load-imbalance analysis)."""

    warp_id: int
    launch_cycle: int
    finish_cycle: int
    instructions: int

    @property
    def lifetime(self) -> int:
        """Cycles between the warp's launch and final completion."""
        return self.finish_cycle - self.launch_cycle


#: One launched warp's lifetime as stored in :attr:`SimResult.warp_rows`:
#: ``(warp_id, launch_cycle, finish_cycle, instructions)``, the field
#: order of :class:`WarpRecord`.
WarpRow = Tuple[int, int, int, int]


@dataclass
class SimResult:
    """Everything a finished SM run exposes to analysis and harness.

    The fields are the run's one stored form: they are what a cache
    entry or a pool payload carries.  :attr:`metrics` and
    :attr:`warp_records` are views derived from them, memoised on first
    access and left out of the pickled state, so reading them changes
    neither the size nor the bytes of a pickled result.
    """

    kernel_name: str
    technique: str
    cycles: int
    stats: SMStats
    memory: MemoryStats
    domain_stats: Dict[str, GatingStats]
    idle_detect_final: Dict[str, int]
    pipeline_issues: Dict[str, int]
    pipeline_lane_work: Dict[str, float]
    pipelines_by_kind: Dict[ExecUnitKind, Tuple[str, ...]]
    warp_rows: Tuple[WarpRow, ...] = ()

    @cached_property
    def warp_records(self) -> Tuple[WarpRecord, ...]:
        """Per-warp lifetimes, one :class:`WarpRecord` per stored row."""
        return tuple(WarpRecord(*row) for row in self.warp_rows)

    @cached_property
    def metrics(self) -> Dict[str, object]:
        """Unified flat metrics view: every counter of the run
        re-expressed as ``name{label="value"}`` keys (see
        :mod:`repro.obs.metrics`)."""
        registry = MetricsRegistry()
        self.stats.export_metrics(registry)
        for name, stats in self.domain_stats.items():
            stats.export_metrics(registry, domain=name)
            registry.gauge("idle_detect",
                           domain=name).set(self.idle_detect_final[name])
        for name, issued in self.pipeline_issues.items():
            registry.counter("pipeline_issues", unit=name).inc(issued)
        return registry.as_flat_dict()

    def __getstate__(self) -> Dict[str, object]:
        return {key: value for key, value in self.__dict__.items()
                if key not in ("metrics", "warp_records")}

    def pipeline_names(self, kind: ExecUnitKind) -> Tuple[str, ...]:
        """Names of the pipelines of one unit kind."""
        return self.pipelines_by_kind.get(kind, ())

    def unit_activity(self, kind: ExecUnitKind) -> DomainEnergy:
        """Summed activity of a unit kind, ready for the energy model.

        ``cycles`` counts domain-cycles: run length times number of
        clusters of the kind, so per-cycle leakage of every cluster is
        represented.
        """
        names = self.pipeline_names(kind)
        gated = sum(self.domain_stats[n].gated_cycles
                    for n in names if n in self.domain_stats)
        events = sum(self.domain_stats[n].gating_events
                     for n in names if n in self.domain_stats)
        issues = sum(self.pipeline_issues.get(n, 0) for n in names)
        lane_work = sum(self.pipeline_lane_work.get(n, 0.0)
                        for n in names)
        return DomainEnergy(cycles=self.cycles * len(names),
                            gated_cycles=gated, issues=issues,
                            gating_events=events,
                            lane_work=min(lane_work, float(issues)))

    def gating_totals(self, kind: ExecUnitKind) -> GatingStats:
        """Merged gating counters across the clusters of one kind."""
        total = GatingStats()
        for name in self.pipeline_names(kind):
            stats = self.domain_stats.get(name)
            if stats is None:
                continue
            total.gating_events += stats.gating_events
            total.wakeups += stats.wakeups
            total.wakeups_uncompensated += stats.wakeups_uncompensated
            total.critical_wakeups += stats.critical_wakeups
            total.gated_cycles += stats.gated_cycles
            total.compensated_cycles += stats.compensated_cycles
            total.uncompensated_cycles += stats.uncompensated_cycles
            total.waking_cycles += stats.waking_cycles
            total.on_cycles += stats.on_cycles
            total.denied_wakeups += stats.denied_wakeups
        return total

    def idle_histogram(self, kind: ExecUnitKind) -> Dict[int, int]:
        """Merged idle-period length histogram for one unit kind."""
        merged: Dict[int, int] = {}
        for name in self.pipeline_names(kind):
            tracker = self.stats.idle_trackers.get(name)
            if tracker is None:
                continue
            for length, count in tracker.histogram.items():
                merged[length] = merged.get(length, 0) + count
        return merged

    def idle_fraction(self, kind: ExecUnitKind) -> float:
        """Idle cycles / run cycles for one unit kind (Figure 8a)."""
        return self.stats.idle_fraction(list(self.pipeline_names(kind)))

    def compensated_metric(self, kind: ExecUnitKind) -> float:
        """Signed compensated-state residency (Figure 8b).

        (compensated - uncompensated) cycles over total domain-cycles;
        negative when windows mostly ended before break-even.
        """
        totals = self.gating_totals(kind)
        denom = self.cycles * max(1, len(self.pipeline_names(kind)))
        return (totals.compensated_cycles
                - totals.uncompensated_cycles) / denom


class StreamingMultiprocessor:
    """Trace-driven cycle model of one GTX480-like SM.

    ``kernel`` may be a single :class:`KernelTrace` or a sequence of
    them; a sequence runs back to back with device-level barriers (and
    optional idle gaps of ``kernel_gap_cycles``) between kernels, the
    way a host application launches dependent kernels.
    """

    def __init__(self, kernel, config: SMConfig,
                 scheduler: WarpScheduler,
                 dram_latency: Optional[int] = None,
                 technique: str = "baseline",
                 kernel_gap_cycles: int = 0,
                 bus: Optional[EventBus] = None,
                 fast_forward: bool = False,
                 dense_kernel: Optional[bool] = None) -> None:
        if isinstance(kernel, KernelTrace):
            self.kernels: List[KernelTrace] = [kernel]
        else:
            self.kernels = list(kernel)
            if not self.kernels:
                raise ValueError("need at least one kernel")
        self.kernel = self.kernels[0]
        self.config = config
        self.scheduler = scheduler
        self.technique = technique
        #: The SM's event bus — disabled by default (zero cost); enable
        #: before run() and subscribe exporters to collect the stream.
        #: Domains attached later and the scheduler share this instance.
        self.bus = bus if bus is not None else EventBus(enabled=False)
        scheduler.bus = self.bus
        self.memory = MemorySubsystem(config.memory, dram_latency)
        self.fetch = FetchEngine(config.fetch_width, config.ibuffer_entries)

        n_slots = min([config.max_resident_warps]
                      + [k.max_resident_warps for k in self.kernels])
        self.warps: List[WarpContext] = [WarpContext(i) for i in range(n_slots)]
        if len(self.kernels) == 1 and kernel_gap_cycles == 0:
            self.launcher = WarpLauncher(self.kernel, n_slots)
        else:
            self.launcher = MultiKernelLauncher(
                self.kernels, n_slots, gap_cycles=kernel_gap_cycles)
        self._ages: List[int] = [0] * n_slots
        self._age_counter = 0
        self._launch_cycles: List[int] = [0] * n_slots
        self._warp_rows: List[WarpRow] = []

        self.pipelines: List[ExecPipeline] = []
        self._by_kind: Dict[ExecUnitKind, List[ExecPipeline]] = {
            kind: [] for kind in ExecUnitKind}
        for i in range(config.n_sp_clusters):
            self._add_pipeline(ExecPipeline(
                ExecUnitKind.INT, f"INT{i}", config.int_initiation_interval))
            self._add_pipeline(ExecPipeline(
                ExecUnitKind.FP, f"FP{i}", config.fp_initiation_interval))
        self._add_pipeline(ExecPipeline(
            ExecUnitKind.SFU, "SFU", config.sfu_initiation_interval))
        self._add_pipeline(ExecPipeline(
            ExecUnitKind.LDST, "LDST", config.ldst_initiation_interval))

        self.domains: Dict[str, GatingDomain] = {}
        self.hooks: List[CycleHook] = []
        self.regfile: Optional[RegisterFileModel] = (
            RegisterFileModel(config.rf_banks, config.rf_ports_per_bank)
            if config.rf_banks else None)
        self.stats = SMStats()
        #: Active-set occupancy per type this cycle; Coordinated Blackout
        #: policies read this (the hardware INT_ACTV / FP_ACTV counters).
        self.actv_counts: Dict[OpClass, int] = {cls: 0 for cls in OpClass}
        self._retry: List[Tuple[int, Instruction]] = []
        self._ran = False
        self._kernel_index_seen = 0
        #: When True, run() installs a SpanFastForwarder that jumps
        #: over provably-quiescent idle *and* busy spans (bit-identical
        #: results; see repro.sim.fastforward).  The forwarder is built
        #: lazily at run time so domains and hooks attached after
        #: construction count.
        self.fast_forward = fast_forward
        self._forwarder = None
        #: Dense-step kernel policy (:mod:`repro.sim.kernel`): True
        #: forces the whole run through the kernel (the identity tests'
        #: mode), False forbids it, None (default) lets the fast-forward
        #: planner hand over dense windows when the observed skip
        #: fraction is low.  Results are bit-identical either way.
        self.dense_kernel = dense_kernel
        self._kernel_core = None
        # --- hot-loop state (frozen by _prepare at run start) ---------
        self._pending_threshold = config.memory.pending_threshold
        self._issue_width = config.issue_width
        #: Whether the launcher exposes multi-kernel boundaries (the
        #: per-cycle KernelBoundary check reads this instead of paying a
        #: getattr on every instrumented cycle).
        self._multi_kernel = hasattr(self.launcher,
                                     "current_kernel_index")
        #: Occupied warp contexts in slot order; rebuilt by
        #: _manage_warps only when residency changes, so the per-cycle
        #: stages iterate exactly the live warps instead of all slots.
        self._resident: List[WarpContext] = []
        #: Set when a warp *may* have finished (its last outstanding
        #: instruction retired, or an empty trace was assigned);
        #: _manage_warps only scans for finished warps when it is set.
        self._finish_check = False
        #: Persistent per-cycle scheduler view: the counter dicts are
        #: zeroed in place each cycle rather than reallocated, and the
        #: age list is the SM's own.
        self._view = SchedulerView(ages=self._ages)
        # OpClass -> (pipes, domains, n_pipes, is_ldst) issue dispatch.
        self._unit_table: Dict[OpClass, tuple] = {}
        # (pipe, domain) pairs in pipeline order (gated pipes only).
        self._gated_pipes: List[Tuple[ExecPipeline, GatingDomain]] = []
        # OpClass -> domains consulted for the type-in-blackout flags.
        self._blackout_domains: Dict[OpClass, tuple] = {}
        self._has_blackout = False
        # SM-wide busy watermark + open-span start for the SM_WIDE
        # tracker (same span-based accounting as ExecPipeline's).
        self._sm_tracker = None
        self._sm_busy_until = 0
        self._sm_span_start = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _add_pipeline(self, pipe: ExecPipeline) -> None:
        self.pipelines.append(pipe)
        self._by_kind[pipe.kind].append(pipe)

    def attach_domain(self, pipeline_name: str,
                      domain: GatingDomain) -> None:
        """Attach a power-gating domain to one pipeline by name."""
        if all(p.name != pipeline_name for p in self.pipelines):
            raise KeyError(f"no pipeline named {pipeline_name!r}")
        self.domains[pipeline_name] = domain
        domain.bus = self.bus

    def add_hook(self, hook: CycleHook) -> None:
        """Register a per-cycle hook (runs after the PG update)."""
        self.hooks.append(hook)

    def pipelines_of(self, kind: ExecUnitKind) -> List[ExecPipeline]:
        """The pipelines serving one unit kind."""
        return self._by_kind[kind]

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Replay the kernel to completion and return the statistics."""
        if self._ran:
            raise RuntimeError("an SM instance runs exactly one kernel; "
                               "build a fresh SM for another run")
        self._ran = True
        self.scheduler.reset()
        self._prepare()
        kernel_core = None
        if self.dense_kernel is True:
            # Forced mode: the entire run executes through the dense
            # kernel (bit-identical by construction; the golden tests
            # pin it).  Takes precedence over fast-forwarding.
            from repro.sim.kernel import DenseStepKernel
            kernel_core = self._kernel_core = DenseStepKernel(self)
        elif self.fast_forward:
            from repro.sim.fastforward import SpanFastForwarder
            self._forwarder = SpanFastForwarder(self)
        if self.bus.enabled:
            self.bus.publish(KernelBoundary(0, self.kernel.name, 0))
        cycle = 0
        forwarder = self._forwarder
        max_cycles = self.config.max_cycles
        step = self._step
        drained = self._drained
        while not drained():
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"{self.kernel.name}: no drain after "
                    f"{max_cycles} cycles (deadlock?)")
            if kernel_core is not None:
                cycle = kernel_core.run_window(cycle, max_cycles)
                continue
            if forwarder is not None:
                skipped_to = forwarder.advance(cycle)
                if skipped_to != cycle:
                    cycle = skipped_to
                    continue
                dense_until = forwarder.dense_until
                if dense_until > cycle:
                    # Mode 3: the planner judged this window dense —
                    # hand it to the batched kernel instead of paying
                    # per-cycle planning with nothing to skip.
                    end = dense_until if dense_until < max_cycles \
                        else max_cycles
                    cycle = forwarder.kernel.run_window(cycle, end)
                    continue
            step(cycle)
            cycle += 1
        return self._collect(cycle)

    def _prepare(self) -> None:
        """Freeze the issue/power dispatch tables for the run.

        Called once at run start, after every domain and hook is
        attached: precomputes the OpClass -> (pipes, domains) issue
        table, the gated-pipe list the power update walks, and the
        per-type blackout domain tuples, so the cycle loop never
        re-derives them.  Idle trackers are bound lazily at the first
        real step (see :meth:`_bind_trackers`) to keep a zero-cycle run
        indistinguishable from the legacy per-cycle path, which never
        created them.
        """
        domains = self.domains
        table: Dict[OpClass, tuple] = {}
        for cls in OpClass:
            kind = UNIT_FOR_OP_CLASS[cls]
            pipes = tuple(self._by_kind[kind])
            doms = tuple(domains.get(p.name) for p in pipes)
            table[cls] = (pipes, doms, len(pipes),
                          kind is ExecUnitKind.LDST)
        self._unit_table = table
        self._gated_pipes = [(p, domains[p.name]) for p in self.pipelines
                             if p.name in domains]
        blackout: Dict[OpClass, tuple] = {}
        for cls in CUDA_CORE_CLASSES:
            pipes = self._by_kind[UNIT_FOR_OP_CLASS[cls]]
            blackout[cls] = tuple(domains[p.name] for p in pipes
                                  if p.name in domains)
        self._blackout_domains = blackout
        self._has_blackout = any(blackout.values())
        self._resident = [w for w in self.warps if w.trace is not None]
        self._finish_check = True
        self.actv_counts = self._view.actv_counts
        # Per-cycle config reads resolved once.
        self._pending_threshold = self.config.memory.pending_threshold
        self._issue_width = self.config.issue_width

    def _bind_trackers(self) -> None:
        """Create and bind the idle trackers (first real step only).

        Creation order — pipelines in construction order, then SM_WIDE —
        matches the legacy per-cycle path's first _update_power, so the
        ``idle_trackers`` dict iterates identically.
        """
        stats = self.stats
        for pipe in self.pipelines:
            pipe.tracker = stats.tracker(pipe.name)
        self._sm_tracker = stats.tracker(self.SM_WIDE_TRACKER)

    def _drained(self) -> bool:
        return (not self._resident and not self._retry
                and self.launcher.remaining == 0)

    def _step(self, cycle: int) -> None:
        if self._sm_tracker is None:
            self._bind_trackers()
        self._writeback(cycle)
        self._manage_warps(cycle)
        self.stats.fetched += self.fetch.tick(self.warps)
        view = self._classify(cycle)
        self._walk(cycle, self.scheduler.order(cycle, view))
        self._update_power(cycle)
        self.stats.cycles += 1
        for hook in self.hooks:
            hook.on_cycle(cycle)

    # ------------------------------------------------------------------
    # stage 1: writeback
    # ------------------------------------------------------------------

    def _writeback(self, cycle: int,
                   resolved: Optional[Set[int]] = None) -> None:
        """Deliver memory values, drain pipelines, release producers.

        ``resolved``, when given, collects the slots whose load resolved
        this cycle — the only writeback event that bumps a scoreboard
        version, so exactly the slots whose head summary went stale
        (the dense kernel re-classifies them).
        """
        memory = self.memory
        if cycle >= memory.next_event:
            for completion in memory.tick(cycle):
                self._retire(completion.warp_slot)
        for pipe in self.pipelines:
            flight = pipe._in_flight
            if flight and flight[0][0] <= cycle:
                for done in pipe.drain(cycle):
                    inst = done.inst
                    if inst.is_mem:
                        self._access_memory(cycle, done.warp_slot, inst,
                                            resolved=resolved)
                    else:
                        self._retire(done.warp_slot)
        if self._retry:
            still_waiting: List[Tuple[int, Instruction]] = []
            for slot, inst in self._retry:
                if not self._access_memory(cycle, slot, inst,
                                           requeue=False,
                                           resolved=resolved):
                    still_waiting.append((slot, inst))
            self._retry = still_waiting
        for warp in self._resident:
            scoreboard = warp.scoreboard
            if cycle >= scoreboard._next_release:
                scoreboard.release_completed(cycle)

    def _access_memory(self, cycle: int, slot: int, inst: Instruction,
                       requeue: bool = True,
                       resolved: Optional[Set[int]] = None) -> bool:
        """Hand a drained LDST instruction to the memory model.

        Returns False when the MSHR file rejected the access (it will
        retry next cycle and hold the LDST port via back-pressure).  A
        load's slot is added to ``resolved`` (when given) once its
        scoreboard entry resolves.
        """
        ready = self.memory.access(cycle, slot, inst)
        if ready is None:
            if requeue:
                self._retry.append((slot, inst))
            return False
        if inst.is_store:
            self._retire(slot)
        else:
            assert inst.dest is not None
            self.warps[slot].scoreboard.resolve_memory(inst.dest, ready)
            if resolved is not None:
                resolved.add(slot)
        return True

    def _retire(self, slot: int) -> None:
        warp = self.warps[slot]
        outstanding = warp.outstanding - 1
        warp.outstanding = outstanding
        warp.retired += 1
        self.stats.instructions_retired += 1
        if outstanding <= 0:
            if outstanding < 0:
                raise RuntimeError(
                    f"warp slot {slot}: retired more than issued")
            # The warp may now satisfy finished(); a finished warp
            # always reaches this state through its last retirement,
            # so _manage_warps only scans when this flag is set.
            self._finish_check = True

    # ------------------------------------------------------------------
    # stage 2: warp slot management
    # ------------------------------------------------------------------

    def _manage_warps(self, cycle: int) -> None:
        released = 0
        if self._finish_check:
            self._finish_check = False
            for warp in self._resident:
                if warp.outstanding == 0 and not warp.ibuffer \
                        and warp.fetch_pc >= warp.trace_len:
                    assert warp.trace is not None
                    self._warp_rows.append((
                        warp.trace.warp_id, self._launch_cycles[warp.slot],
                        cycle, warp.retired))
                    warp.release()
                    released += 1
        launched = 0
        if self.launcher.remaining:
            resident = len(self._resident) - released
            if resident < len(self.warps):
                for warp in self.warps:
                    if warp.trace is not None:
                        continue
                    trace = self.launcher.pop_next(cycle, resident)
                    if trace is None:
                        break
                    warp.assign(trace)
                    if not warp.trace_len:
                        # A zero-instruction warp is finished already.
                        self._finish_check = True
                    self._ages[warp.slot] = self._age_counter
                    self._launch_cycles[warp.slot] = cycle
                    self._age_counter += 1
                    resident += 1
                    launched += 1
            if self.bus.enabled:
                index = (self.launcher.current_kernel_index
                         if self._multi_kernel else 0)
                if index != self._kernel_index_seen:
                    self._kernel_index_seen = index
                    self.bus.publish(KernelBoundary(
                        cycle, self.kernels[index].name, index))
        if released or launched:
            self._resident = [w for w in self.warps
                              if w.trace is not None]

    # ------------------------------------------------------------------
    # stage 4: active/pending classification
    # ------------------------------------------------------------------

    def _classify(self, cycle: int) -> SchedulerView:
        """Fill the scheduler view from the per-warp classification caches.

        The readiness summary of each warp's head instruction
        (:meth:`Scoreboard.head_status`) only changes when the head
        itself changes (an issue popped the buffer) or a producer is
        recorded/resolved (the scoreboard version bumps), never with the
        mere passage of time — so the per-cycle work for an unchanged
        warp is two integer compares against cached absolute cycles.
        This full per-cycle pass is the oracle the dense kernel's
        incremental classification is pinned against.
        """
        view = self._view
        actv = view.actv_counts
        for cls in ALL_OP_CLASSES:
            actv[cls] = 0
        active: List[int] = []
        ready: List[int] = []
        ready_by_class: Tuple[List[int], ...] = ([], [], [], [])
        pending = 0
        for warp in self._resident:
            buf = warp.ibuffer
            if not buf:
                continue
            popped = warp.fetch_pc - len(buf)
            if popped != warp.cache_popped \
                    or warp.cache_version != warp.scoreboard.version:
                self._refresh_head(warp, popped)
            if warp.head_unresolved or cycle < warp.head_mem_until:
                pending += 1
                continue
            slot = warp.slot
            active.append(slot)
            actv[warp.head_inst.op_class] += 1
            if cycle >= warp.head_ready_at:
                ready.append(slot)
                ready_by_class[warp.head_opx].append(slot)
        view.active = active
        view.ready = ready
        view.ready_by_class = ready_by_class
        if self._has_blackout:
            self._blackout_flags(cycle, view.type_in_blackout)
        self.actv_counts = actv
        stats = self.stats
        n_active = len(active)
        stats.active_warp_sum += n_active
        stats.pending_warp_sum += pending
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active
        return view

    def _refresh_head(self, warp: WarpContext, popped: int) -> None:
        """Recompute one warp's cached head summary.

        Callers compare the ``(popped, scoreboard version)`` stamp
        inline and call this only on a mismatch.  The serial
        classification, the dense kernel and the span planner all share
        this one cache, whichever execution mode reaches a warp next.
        """
        head = warp.ibuffer[0]
        scoreboard = warp.scoreboard
        (warp.head_ready_at, warp.head_mem_until,
         warp.head_unresolved) = scoreboard.head_status(
            head, self._pending_threshold)
        warp.cache_popped = popped
        warp.cache_version = scoreboard.version
        warp.head_inst = head
        warp.head_opx = int(head.op_class)

    def _blackout_flags(self, cycle: int,
                        flags: Dict[OpClass, bool]) -> None:
        """Fill ``flags`` with each CUDA-core type's blackout status.

        A type is in blackout when it has gated clusters and every one
        of them is gated and short of break-even (un-wakeable).
        """
        for cls, doms in self._blackout_domains.items():
            flag = bool(doms)
            for domain in doms:
                gated_since = domain._gated_since
                if gated_since is None or cycle - gated_since >= domain.bet:
                    flag = False
                    break
            flags[cls] = flag

    # ------------------------------------------------------------------
    # stage 5: issue
    # ------------------------------------------------------------------

    def _walk(self, cycle: int, ordered: Sequence[int]) -> List[int]:
        """Issue from the scheduler's priority order of ready slots.

        ``ordered`` is empty when nothing is ready — then every issue
        lane records a no-ready-warp stall.  Each slot's head comes from
        the warp's cached ``head_inst``.  The walk stops once the issue
        width is filled and returns the slots that issued.

        The unit-acquisition logic (MSHR back-pressure, the warp's home
        SP cluster, power-gating hazards, the structural port check) is
        inlined here against the precomputed ``_unit_table`` — this loop
        plus classification dominates busy-cycle runtime.  CUDA-core
        (INT/FP) work is *bound* to the warp's home cluster (``slot mod
        n_clusters``), modelling Fermi's static warp-to-scheduler
        assignment — a warp cannot migrate to the other cluster when its
        own is busy or asleep.  On a power-gating miss the home cluster
        receives a wakeup request (granted immediately under
        conventional gating, denied while in blackout).
        """
        width = self._issue_width
        issued: List[int] = []
        regfile = self.regfile
        if regfile is not None:
            regfile.begin_cycle()
        bus = self.bus
        publish_events = bus.enabled
        if not ordered:
            self.stats.stalls.no_ready_warp += width
            if publish_events:
                # The per-lane stall records are identical; publish one
                # immutable instance ``width`` times.
                stall = IssueStall(cycle, "no_ready_warp")
                for _ in range(width):
                    bus.publish(stall)
            return issued
        stats = self.stats
        stalls = stats.stalls
        unit_table = self._unit_table
        warps = self.warps
        for slot in ordered:
            warp = warps[slot]
            inst = warp.head_inst
            pipes, doms, n_pipes, is_ldst = unit_table[inst.op_class]
            if is_ldst and self._retry:
                # MSHR back-pressure holds the LDST port for retries.
                stalls.mshr_full += 1
                if publish_events:
                    bus.publish(IssueStall(cycle, "mshr_full"))
                continue
            index = slot % n_pipes
            pipe = pipes[index]
            domain = doms[index]
            if domain is not None \
                    and not (domain._gated_since is None
                             and cycle >= domain._wake_done):
                # Unavailable: replicate the legacy hazard ladder.
                if domain.state(cycle) is DomainState.WAKING:
                    stalls.unit_waking += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_waking"))
                    continue
                domain.request_wakeup(cycle)
                if domain._gated_since is not None:
                    stalls.unit_gated += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_gated"))
                else:
                    stalls.unit_waking += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_waking"))
                continue
            if cycle < pipe._port_free_at:
                stalls.structural += 1
                if publish_events:
                    bus.publish(IssueStall(cycle, "structural"))
                continue
            warp.pop_head()
            # Operand-collector bank conflicts delay both the dispatch
            # port and the result; the scoreboard sees the late start.
            conflict = (regfile.charge(slot, inst)
                        if regfile is not None else 0)
            warp.scoreboard.record_issue(inst, cycle + conflict)
            pipe.issue(cycle, slot, inst, extra_hold=conflict)
            # SM-wide busy watermark (span-based SM_WIDE tracker).
            until = self._sm_busy_until
            if cycle >= until:
                tracker = self._sm_tracker
                tracker.observe_busy_span(until - self._sm_span_start)
                tracker.observe_idle_span(cycle - until)
                self._sm_span_start = cycle
                until = cycle
            pipe_until = pipe.busy_until
            if pipe_until > until:
                until = pipe_until
            self._sm_busy_until = until
            warp.outstanding += 1
            stats.instructions_issued += 1
            stats.issued_by_class[inst.op_class] += 1
            self.scheduler.on_issue(cycle, slot)
            issued.append(slot)
            if len(issued) == width:
                break
        return issued

    # ------------------------------------------------------------------
    # stage 6: power-gating update
    # ------------------------------------------------------------------

    #: Tracker name for whole-SM execution idleness (every pipeline
    #: empty simultaneously) — the opportunity window that SM-granular
    #: gating schemes like Wang et al. [22] can exploit.
    SM_WIDE_TRACKER = "SM_WIDE"

    def _update_power(self, cycle: int) -> None:
        """End-of-cycle power-gating controller updates.

        Idle-period trackers no longer appear here at all: busy/idle
        state only changes at issue boundaries, so per-pipe and SM-wide
        spans are integrated lazily at issue (see
        :meth:`ExecPipeline.issue`) and flushed once by
        :meth:`_flush_spans` — a run without gating domains pays zero
        per-cycle power/stats cost.  Gating domains still observe every
        cycle because their policies read live cross-domain state
        (peer gating, ACTV counts).  Post-writeback, a pipeline is busy
        iff ``cycle < busy_until`` (the issue-maintained watermark).
        """
        for pipe, domain in self._gated_pipes:
            domain.observe(cycle, cycle < pipe.busy_until)

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _flush_spans(self, end_cycle: int) -> None:
        """Integrate every open busy/idle span into the idle trackers.

        Together with the issue-time flushes this partitions exactly
        [0, end_cycle) per tracker, reproducing what the legacy
        per-cycle ``observe`` calls accumulated.
        """
        tracker = self._sm_tracker
        if tracker is None:
            return  # zero-cycle run: trackers were never created
        for pipe in self.pipelines:
            pipe.finalize_tracker(end_cycle)
        busy_end = self._sm_busy_until
        if busy_end > end_cycle:
            busy_end = end_cycle
        tracker.observe_busy_span(busy_end - self._sm_span_start)
        if end_cycle > busy_end:
            tracker.observe_idle_span(end_cycle - busy_end)

    def _collect(self, cycles: int) -> SimResult:
        self._flush_spans(cycles)
        self.stats.finalize()
        for domain in self.domains.values():
            domain.finalize(cycles)
        name = "+".join(k.name for k in self.kernels) \
            if len(self.kernels) > 1 else self.kernel.name
        return SimResult(
            kernel_name=name,
            technique=self.technique,
            cycles=cycles,
            stats=self.stats,
            memory=self.memory.stats,
            domain_stats={name: d.stats for name, d in self.domains.items()},
            idle_detect_final={name: d.idle_detect
                               for name, d in self.domains.items()},
            pipeline_issues={p.name: p.issued_count for p in self.pipelines},
            pipeline_lane_work={p.name: p.lane_work
                                for p in self.pipelines},
            warp_rows=tuple(self._warp_rows),
            pipelines_by_kind={
                kind: tuple(p.name for p in pipes)
                for kind, pipes in self._by_kind.items()},
        )
