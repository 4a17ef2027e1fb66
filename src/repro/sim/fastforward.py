"""Quiescent-span fast-forward for the SM main loop.

GPGPU workloads spend long stretches on cycles where the step functions
do no *decision* work — and not only while idle.  Two span families
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

:class:`SpanFastForwarder` detects both and jumps the clock over them.
The design rule that makes bit-identity easy to argue is that **every
cycle on which anything interesting can happen is stepped** by the
run's dense kernel (:mod:`repro.sim.kernel`), which calls the SM's own
stages; only provably-quiet maximal sub-spans are skipped.
"Interesting" cycles are collected as a lower bound from every
stateful component, each reporting its next *state-changing* cycle:

* execution pipelines — the oldest in-flight completion
  (:meth:`ExecPipeline.next_state_change`); a drain triggers retires,
  memory accesses and scoreboard resolution, so it always ends a span;
* memory — the earliest scheduled load delivery or line fill
  (:meth:`MemorySubsystem.next_completion_cycle`);
* scoreboards — each head's cached absolute-cycle readiness summary
  (:meth:`Scoreboard.head_status`): the ready flip at ``ready_at`` and
  the pending-set exit at ``mem_until`` are the only cycles its
  classification can change.  A head blocked on an *unresolved* load
  pends until an LDST completion resolves it, so the LDST pipe's drain
  bound covers it (no LDST work in flight forces a stepped cycle);
* gating domains — while the attached pipeline is idle, gate taking
  effect, blackout expiry, wakeup completion and the policy's
  predicted gate-fire cycle (:meth:`GatingDomain.next_idle_event`);
  while it is busy, the wake-completion edge and the pipeline's
  busy-until watermark (:meth:`GatingDomain.next_busy_event`);
* cycle hooks — e.g. the adaptive-epoch controller's epoch-closing
  cycle (``idle_next_event``); a hook without that method disables
  fast-forwarding entirely;
* the launcher — the earliest cycle a queued warp could launch
  (``launch_blocked_until``);
* the scheduler — a pending GATES priority flip under the frozen view
  (``idle_flip_pending``) forces a stepped cycle so the flip happens
  inside an ordinary ``order`` call;
* the run cap — ``config.max_cycles``, so an over-long run raises at
  exactly the serial cycle.

When the minimum of those bounds lies beyond the current cycle, the
span up to (but excluding) the bound is applied in bulk: gating-domain
idle/waking/busy counters, warp-population samples, no-ready-warp stall
counters, the fetch and scheduler round-robin pointers, and the cycle
count all advance by exactly what ``span`` stepped cycles would have
produced.  (The per-pipeline idle trackers need no bulk update at all:
they accumulate busy/idle *spans* between absolute cycle marks, so a
skipped stretch lands in the right period when the next issue — or the
end-of-run flush — integrates it.)  The only serial/fast-forward
divergence is *internal* scoreboard garbage (completed producers are
dropped at the next stepped writeback instead of every cycle), which
is unobservable: a producer whose ready cycle has passed blocks nothing
and classifies as nothing.

Two cost controls keep the planner cheap on cycles it cannot skip:

* the per-warp head scan reuses the SM's incremental classification
  cache (``(popped, scoreboard version)``-stamped), so an unchanged
  warp costs two integer compares; and
* a failed plan arms an exponential backoff, capped at
  :data:`PLAN_BACKOFF_CAP` cycles between attempts and escalating to
  :data:`ADAPTIVE_BACKOFF_CAP` while the skip fraction stays low, so
  issue-bound stretches degrade to a handful of attribute checks per
  cycle.
  Planning *timing* cannot affect results — a missed span start only
  shrinks the skipped span — so the backoff trades at most a few
  cycles of coverage for plan cost, never correctness.

Skipping statistics (``skipped_cycles``, ``skips``, ``plans``) live on
the forwarder, *not* in the run's metrics — results stay byte-identical
to serial runs by construction.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.optypes import ExecUnitKind
from repro.power.gating import GatingPolicy
from repro.sim.sched.base import SchedulerView

#: Floor of the failed-plan backoff cap: after repeated failures the
#: planner re-arms at most this many cycles later.  Tuned on the
#: device-scale bench: tiny against the spans worth skipping (a DRAM
#: round trip is hundreds of cycles), so the coverage loss stays in the
#: low percent, while issue-bound stretches still shed most of the
#: planning cost.
PLAN_BACKOFF_CAP = 4

#: Ceiling the backoff cap may *adaptively* grow to while the observed
#: skip fraction stays low (a dense regime keeps failing plans — paying
#: a plan every 5 cycles there is pure overhead).  Any skip success
#: walks the cap back down toward :data:`PLAN_BACKOFF_CAP`, so a regime
#: change costs at most a few shortened spans.
ADAPTIVE_BACKOFF_CAP = 64

#: Observation window (cycles) over which the skip fraction is measured
#: before the cap escalates.
ADAPT_WINDOW = 256

#: Skip-fraction threshold: below this, failed plans cost more than the
#: few spans they find, so the backoff cap escalates.
DENSE_SKIP_FRACTION = 0.25


class SpanFastForwarder:
    """Plans and applies quiescent-span skips for one SM run.

    Built by :meth:`StreamingMultiprocessor.run` when fast-forwarding
    is requested, after all domains and hooks are attached; the dense
    kernel's loop asks :meth:`advance` about every cycle.
    """

    def __init__(self, sm) -> None:
        self.sm = sm
        #: Cycles jumped over instead of stepped (diagnostics only).
        self.skipped_cycles = 0
        #: Number of skip spans applied.
        self.skips = 0
        #: Number of planning attempts (diagnostics only).
        self.plans = 0
        self._pending_count = 0
        self._view: Optional[SchedulerView] = None
        self._next_plan = 0
        self._backoff = 0
        #: Adaptive ceiling of the failed-plan backoff: grows toward
        #: ADAPTIVE_BACKOFF_CAP while the observed skip fraction stays
        #: low, shrinks on success.
        self._backoff_cap = PLAN_BACKOFF_CAP
        self._window_mark = 0
        self._window_skipped = 0
        self.supported = self._check_supported()

    # ------------------------------------------------------------------
    # capability check (once per run)
    # ------------------------------------------------------------------

    def _check_supported(self) -> bool:
        sm = self.sm
        if not sm.scheduler.supports_idle_skip:
            return False
        if sm.regfile is not None:
            # Operand-collector arbitration state has no bulk replay.
            return False
        if not hasattr(sm.launcher, "launch_blocked_until"):
            return False
        for hook in sm.hooks:
            if not hasattr(hook, "idle_next_event"):
                return False
            if hook.idle_next_event(0) <= 0:
                # The hook pins every cycle (e.g. the CCWS decay hook):
                # no span could ever be skipped, so don't pay the
                # planning cost either.
                return False
        for domain in sm.domains.values():
            # A policy that keeps the base idle_cycles_until_gate cannot
            # predict its own gate decision.
            if type(domain.policy).idle_cycles_until_gate \
                    is GatingPolicy.idle_cycles_until_gate:
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
        if not self.supported or cycle < self._next_plan:
            return cycle
        target = self._plan(cycle)
        if target > cycle:
            self._apply(cycle, target)
            self._backoff = 0
            self._window_skipped += target - cycle
            cap = self._backoff_cap
            if cap > PLAN_BACKOFF_CAP:
                # Success: walk the adaptive cap back down so a regime
                # change re-arms frequent planning within a few skips.
                self._backoff_cap = max(PLAN_BACKOFF_CAP, cap >> 1)
            return target
        # Failed plan: back off exponentially.  Timing only moves span
        # *starts* (a span begun mid-backoff is picked up at the next
        # attempt), never what a skipped span replays.
        self.sm.stats.planner_overhead_cycles += 1
        backoff = self._backoff
        self._next_plan = cycle + 1 + backoff
        if backoff < self._backoff_cap:
            self._backoff = backoff + backoff if backoff else 1
        else:
            self._adapt(cycle)
        return cycle

    def _adapt(self, cycle: int) -> None:
        """Adapt to a persistently unskippable stretch (backoff at cap).

        Measures the skip fraction over the trailing observation window
        and, while it stays under :data:`DENSE_SKIP_FRACTION`, doubles
        the backoff cap up to :data:`ADAPTIVE_BACKOFF_CAP` (cheaper
        probing).  Adaptation timing, like backoff timing, can only move
        span starts, never what any cycle computes.
        """
        elapsed = cycle - self._window_mark
        if elapsed < ADAPT_WINDOW:
            return
        fraction = self._window_skipped / elapsed
        self._window_mark = cycle
        self._window_skipped = 0
        if fraction < DENSE_SKIP_FRACTION \
                and self._backoff_cap < ADAPTIVE_BACKOFF_CAP:
            self._backoff_cap <<= 1

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _plan(self, cycle: int) -> int:
        """Return the earliest interesting cycle >= ``cycle``.

        Any return <= ``cycle`` means "step normally".  Ordered so the
        cheap disqualifiers run first — on unskippable cycles this
        should cost little more than a few attribute checks.
        """
        sm = self.sm
        self.plans += 1
        if sm.bus.enabled or sm._retry:
            return cycle

        bound: float = sm.config.max_cycles

        # Pipeline completions: a drain due this cycle (retire, memory
        # access, scoreboard resolution) forces a stepped cycle; later
        # ones bound the span.  Port-release times need no bound — with no
        # ready warp there are no issue attempts, and the structural
        # check at the span-ending cycle derives from timestamps.
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

        mem_event = sm.memory.next_completion_cycle()
        if mem_event <= cycle:
            return cycle
        if mem_event < bound:
            bound = mem_event

        ibuffer_entries = sm.fetch.ibuffer_entries
        view = SchedulerView()
        actv = view.actv_counts
        pending = 0
        unresolved_any = False
        resident = 0
        free_slot = False

        for warp in sm.warps:
            if warp.trace is None:
                free_slot = True
                continue
            resident += 1
            if warp.finished():
                return cycle  # slot frees (and may refill) this cycle
            buf = warp.ibuffer
            buffered = len(buf)
            if buffered < ibuffer_entries \
                    and warp.fetch_pc < warp.trace_len:
                return cycle  # fetch still streams this warp
            if not buffered:
                continue  # exhausted, draining outstanding work
            popped = warp.fetch_pc - buffered
            if popped != warp.cache_popped \
                    or warp.cache_version != warp.scoreboard.version:
                # The planner and the issue stage share one memoised
                # head summary.
                sm._refresh_head(warp, popped)
            if warp.head_unresolved:
                pending += 1
                unresolved_any = True
            elif cycle < warp.head_mem_until:
                # Pending until the threshold crossing; the ready flip
                # lies strictly beyond it, so mem_until alone bounds.
                pending += 1
                if warp.head_mem_until < bound:
                    bound = warp.head_mem_until
            else:
                if cycle >= warp.head_ready_at:
                    return cycle  # issue will happen
                actv[warp.head_inst.op_class] += 1
                if warp.head_ready_at < bound:
                    bound = warp.head_ready_at

        if unresolved_any and not ldst_flight:
            # An unresolved load with no LDST completion to bound its
            # resolution (cannot happen outside retry pressure, which
            # already bailed) — refuse rather than guess.
            return cycle

        for pipe, domain in sm._gated_pipes:
            if cycle < pipe.busy_until:
                # Busy throughout [cycle, busy_until): the controller
                # observes "busy" each cycle, so only a wake completion
                # (or the busy->idle edge itself) can change behaviour.
                event = domain.next_busy_event(cycle)
                if event is not None:
                    if event <= cycle:
                        return cycle
                    if event < bound:
                        bound = event
                if pipe.busy_until < bound:
                    bound = pipe.busy_until
            else:
                event = domain.next_idle_event(cycle)
                if event is None or event <= cycle:
                    return cycle
                if event < bound:
                    bound = event

        for hook in sm.hooks:
            event = hook.idle_next_event(cycle)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event

        if sm.launcher.remaining and free_slot:
            event = sm.launcher.launch_blocked_until(cycle, resident)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event

        if bound <= cycle:
            return cycle

        sm._blackout_flags(cycle, view.type_in_blackout)
        if sm.scheduler.idle_flip_pending(cycle, view):
            return cycle

        self._view = view
        self._pending_count = pending
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
        span = target - cycle
        stats = sm.stats
        view = self._view
        assert view is not None

        # stage 4: classification samples
        n_active = sum(view.actv_counts.values())
        stats.active_warp_sum += span * n_active
        stats.pending_warp_sum += span * self._pending_count
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active
        sm.actv_counts = view.actv_counts

        # stage 3: fetch round-robin pointer
        sm.fetch.skip_idle_cycles(span, len(sm.warps))

        # stage 5: empty issue slots + scheduler pointer drift
        stats.stalls.no_ready_warp += span * sm.config.issue_width
        sm.scheduler.skip_idle_cycles(span)

        # stage 6: gating domains.  Busy pipelines pin the idle counter
        # at zero for the whole span (the span never crosses their
        # busy->idle edge — busy_until bounds it); idle ones accrue
        # idle cycles exactly as serial observation would.  The idle
        # trackers need no work at all here: they integrate busy/idle
        # spans from absolute cycles at the next issue (or the
        # end-of-run flush), so a skipped span lands in the right
        # period automatically.
        for pipe, domain in sm._gated_pipes:
            if cycle < pipe.busy_until:
                domain.skip_busy_cycles(cycle, span)
            else:
                domain.skip_idle_cycles(cycle, span)

        stats.cycles += span
        self.skipped_cycles += span
        self.skips += 1
        self._view = None
