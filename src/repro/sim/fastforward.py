"""Quiescent-span fast-forward for the SM main loop.

GPGPU workloads spend long stretches on cycles where the step functions
do no *decision* work — and not only while idle.  Three span families
qualify:

* **Idle spans** — every resident warp stalled on a known-latency
  event: an outstanding DRAM round trip, a producer a fixed number of
  cycles from writeback, a gated unit counting down its break-even
  time.  Fetch buffers are full, nothing issues, the pipelines are
  empty.
* **Busy spans** — work is in flight but its outcome is already
  determined: long-latency pipelines draining toward known completion
  cycles, the ready set empty, fetch quiescent, every scoreboard head
  with a known writeback bound.  Each such cycle the issue stage walks
  an empty ready list and the gating controllers observe "busy" —
  state drift that is bulk-replayable arithmetic.
* **MSHR-stalled spans** — a full MSHR file has latched retries, and
  the only ready heads are loads and stores.  Each cycle every retry
  is rejected again and the issue walk holds every ready LDST head
  (``mshr_full``), until a memory tick frees an MSHR.

:class:`SpanFastForwarder` detects all three and jumps the clock over
them.  The design rule that makes bit-identity easy to argue is that
**every cycle on which anything interesting can happen is stepped** by
the run's dense kernel (:mod:`repro.sim.kernel`), which calls the SM's
own stages; only provably-quiet maximal sub-spans are skipped.
"Interesting" cycles are collected as a lower bound from every
stateful component, each reporting its next *state-changing* cycle:

* execution pipelines — the oldest in-flight completion
  (:meth:`ExecPipeline.next_state_change`); a drain triggers retires,
  memory accesses and scoreboard resolution, so it always ends a span;
* memory — the earliest scheduled load delivery or line fill
  (:meth:`MemorySubsystem.next_completion_cycle`).  The MSHR file frees
  and the L1 fills only at such a tick, so it also bounds every latched
  retry: a rejected access (an L1 lookup with ``allocate=False`` that
  misses) changes nothing but the ``mshr_stalls`` count;
* warp heads — the planner reads the dense kernel's classification,
  current after every stepped cycle, instead of scanning warps: its
  ready lists, its transition heap (the earliest live ``mem_until`` /
  ``ready_at`` threshold, the only cycles a head's category can change
  on its own) and its unresolved-head count.  An unresolved head pends
  until an LDST completion or a retried access resolves it; the LDST
  pipe's drain bound or the memory event covers it (neither forces a
  stepped cycle);
* fetch — the fetch engine's refill set: while it holds a slot, fetch
  may still stream and the cycle is stepped;
* gating domains — gate taking effect, blackout expiry, wakeup
  completion and, while the attached pipeline is idle, the gate-fire
  cycle its policy's ``gate_threshold`` predicts
  (:meth:`GatingDomain.next_event`); while the pipeline is busy, also
  its busy-until watermark;
* cycle hooks — e.g. the adaptive-epoch controller's epoch-closing
  cycle (``idle_next_event``); a hook without that method disables
  fast-forwarding entirely;
* warp launch — a queued warp and a free slot mean a launch this
  cycle, so the cycle is stepped;
* the scheduler — a state change ``order`` would make although nothing
  issues, such as a pending GATES priority flip under the frozen view
  (``idle_flip_pending``), forces a stepped cycle so the change happens
  inside an ordinary ``order`` call;
* the run cap — ``config.max_cycles``, so an over-long run raises at
  exactly the serial cycle.

When the minimum of those bounds lies beyond the current cycle, the
span up to (but excluding) the bound is applied in bulk: rejected-retry
counts, warp-population samples, the issue stalls (``mshr_full`` per
held head, or ``no_ready_warp`` per issue lane), the fetch round-robin
pointer, the gating domains (through the SM's
stage-6 ``_update_power``, the same advance a stepped cycle makes) and
the cycle count all advance by exactly what ``span`` stepped cycles
would have produced.  (The per-pipeline idle trackers
need no bulk update at all: they accumulate busy/idle *spans* between
absolute cycle marks, so a skipped stretch lands in the right period
when the next issue — or the end-of-run flush — integrates it.)

The planner runs on every cycle the kernel would otherwise step.  It
reads the kernel's aggregates, so a refused plan costs a few attribute
checks.  (An earlier exponential backoff between failed plans saved
little of that and kept skippable cycles stepped: 6.8% of the stepped
cycles of the 108-cell trace-seed-1 grid.)  Planning *timing* cannot
affect results anyway: a missed span start only shrinks the skipped
span.

Skipping statistics (``skipped_cycles``, ``skips``, ``plans``) live on
the forwarder, *not* in the run's metrics — results stay byte-identical
to serial runs by construction.  An enabled event bus does not change
the plan: every event but the issue stalls ends a span, and ``_apply``
publishes those stalls.
"""

from __future__ import annotations

from heapq import heappop

from repro.isa.optypes import ExecUnitKind, OpClass
from repro.obs.events import IssueStall

class SpanFastForwarder:
    """Plans and applies quiescent-span skips for one SM run.

    Built by :meth:`StreamingMultiprocessor.run` when fast-forwarding
    is requested, after all domains and hooks are attached, together
    with the dense ``kernel`` whose loop asks :meth:`advance` about
    every cycle and whose classification the planner reads.
    """

    def __init__(self, sm, kernel) -> None:
        self.sm = sm
        self.kernel = kernel
        #: Cycles jumped over instead of stepped (diagnostics only).
        self.skipped_cycles = 0
        #: Number of skip spans applied.
        self.skips = 0
        #: Number of planning attempts (diagnostics only).
        self.plans = 0
        self.supported = self._check_supported()

    # ------------------------------------------------------------------
    # capability check (once per run)
    # ------------------------------------------------------------------

    def _check_supported(self) -> bool:
        sm = self.sm
        for hook in sm.hooks:
            if not hasattr(hook, "idle_next_event"):
                return False
        return True

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def advance(self, cycle: int) -> int:
        """Skip ahead from ``cycle`` if a quiet span starts here.

        Returns the first cycle that must be stepped (== ``cycle``
        when no skip is possible).  On a skip, all bulk accounting for
        the span [cycle, returned) has been applied.
        """
        if not self.supported:
            return cycle
        target = self._plan(cycle)
        if target > cycle:
            self._apply(cycle, target)
            return target
        self.sm.stats.planner_overhead_cycles += 1
        return cycle

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _plan(self, cycle: int) -> int:
        """Return the earliest interesting cycle >= ``cycle``.

        Any return <= ``cycle`` means "step normally".  Ordered so the
        cheap disqualifiers run first — on unskippable cycles this
        should cost little more than a few attribute checks.  The
        warps' classification is the dense kernel's, current after
        every stepped cycle; a span never changes it.
        """
        sm = self.sm
        kernel = self.kernel
        self.plans += 1
        if kernel._synced_resident is not sm._resident \
                or sm._finish_check:
            # Unclassified residency (no cycle stepped yet), or a warp
            # that may finish and free its slot this cycle.
            return cycle
        if sm.fetch._refill:
            # Fetch may still stream: the refill set holds every slot
            # with buffer room and trace left, the kernel's empty
            # buffers among them.
            return cycle
        if sm._unlaunched and len(sm._resident) < len(sm.warps):
            return cycle  # a queued warp launches into the free slot
        retry = sm._retry
        ready = kernel._ready_all
        if ready and (not retry
                      or len(ready) != len(kernel._ready_cls[OpClass.LDST])):
            return cycle  # issue will happen

        bound: float = sm.config.max_cycles

        # Pipeline completions: a drain due this cycle (retire, memory
        # access, scoreboard resolution) forces a stepped cycle; later
        # ones bound the span.  Port-release times need no bound — no
        # head in a span reaches the port check (none is ready, or the
        # MSHR retry holds it first), and the structural check at the
        # span-ending cycle derives from timestamps.
        ldst_flight = False
        for pipe in sm.pipelines:
            nxt = pipe.next_state_change(cycle)
            if nxt is not None:
                if nxt <= cycle:
                    return cycle
                if nxt < bound:
                    bound = nxt
                if pipe.kind is ExecUnitKind.LDST:
                    ldst_flight = True

        # The memory event also bounds every latched retry: the MSHR
        # file frees, and the L1 fills, only at a memory tick.
        mem_event = sm.memory.next_completion_cycle()
        if mem_event <= cycle:
            return cycle
        if mem_event < bound:
            bound = mem_event

        if kernel._n_unresolved and not ldst_flight and not retry:
            # An unresolved load with neither an LDST completion nor a
            # retried access to resolve it — refuse rather than guess.
            return cycle

        # Head transitions: the earliest live mem_until / ready_at event.
        heap = kernel._heap
        gen = kernel._gen
        while heap and heap[0][2] != gen[heap[0][1]]:
            heappop(heap)  # orphaned: the kernel would drop it too
        if heap:
            due = heap[0][0]
            if due <= cycle:
                return cycle
            if due < bound:
                bound = due

        for pipe, domain in sm._gated_pipes:
            busy = cycle < pipe.busy_until
            event = domain.next_event(cycle, busy)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event
            if busy and pipe.busy_until < bound:
                # The busy->idle edge is the span's bound too.
                bound = pipe.busy_until

        for hook in sm.hooks:
            event = hook.idle_next_event(cycle)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event

        if bound <= cycle:
            return cycle

        # The view stage 4 would hand the scheduler this cycle: the
        # kernel keeps its lists and counts bound to it.
        view = sm._view
        if sm._has_blackout:
            sm._blackout_flags(cycle, view.type_in_blackout)
        if sm.scheduler.idle_flip_pending(cycle, view):
            return cycle

        return int(bound)

    # ------------------------------------------------------------------
    # bulk application
    # ------------------------------------------------------------------

    def _apply(self, cycle: int, target: int) -> None:
        """Account the quiet span [cycle, target) in bulk.

        Mirrors exactly what ``span`` stepped no-issue cycles would do;
        see the module docstring for the argument that each per-cycle
        stage reduces to these updates.
        """
        sm = self.sm
        kernel = self.kernel
        span = target - cycle
        stats = sm.stats

        # stage 1: every latched retry is rejected again each cycle
        if sm._retry:
            sm.memory.stats.mshr_stalls += span * len(sm._retry)

        # stage 3: fetch round-robin pointer
        sm.fetch.skip_idle_cycles(span, len(sm.warps))

        # stage 4: classification samples
        n_active = kernel._n_active
        stats.active_warp_sum += span * n_active
        stats.pending_warp_sum += span * kernel._n_pending
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active

        # stage 5: the walk meets only LDST heads held by MSHR
        # back-pressure, or no ready warp at all; ``order`` changes no
        # scheduler state on such a cycle (the no-issue contract of
        # ``WarpScheduler.order``).
        blocked = len(kernel._ready_all)
        if blocked:
            stats.stalls.mshr_full += span * blocked
            reason, per_cycle = "mshr_full", blocked
        else:
            per_cycle = sm.config.issue_width
            stats.stalls.no_ready_warp += span * per_cycle
            reason = "no_ready_warp"
        if sm.bus.enabled:
            # The span's only events, in serial order.
            for c in range(cycle, target):
                stall = IssueStall(c, reason)
                for _ in range(per_cycle):
                    sm.bus.publish(stall)

        # stage 6: gating domains, through the stepped cycle's own
        # update.  No span crosses a busy->idle edge (busy_until bounds
        # it), so each pipe's occupancy holds for the whole span.  The
        # idle trackers need no work at all here: they integrate
        # busy/idle spans from absolute cycles at the next issue (or
        # the end-of-run flush), so a skipped span lands in the right
        # period automatically.
        sm._update_power(cycle, span)

        stats.cycles += span
        self.skipped_cycles += span
        self.skips += 1
