"""GATES: the Gating-Aware Two-level Scheduler (paper section 4).

GATES extends the baseline two-level scheduler with a *dynamic
priority-based issue scheme*: instructions are ordered

    [highest, LDST, SFU, lowest]      with {highest, lowest} = {INT, FP}

so that integer and floating-point instructions always sit at opposite
ends of the priority.  Issuing clusters of one type while the other
accumulates coalesces the other type's pipeline bubbles into long idle
windows — the raw material power gating needs.

Priority switching (section 4.1):

* INT starts as the highest priority.
* When the highest type's *active-warp subset* empties while the other
  type's subset is non-empty (the INT_ACTV / FP_ACTV counters), the two
  swap ends.
* With Coordinated Blackout, the priority also swaps when both clusters
  of the highest type are in un-wakeable blackout (section 5) — there is
  no point prioritising a type whose units cannot accept work.
* An optional ``max_priority_cycles`` bound forces a swap after a long
  hold, the designer-set anti-starvation threshold the paper mentions;
  the default (None) relies on INT/FP dependencies for liveness, as the
  paper's configuration does.

Within a type, warps issue in the same loose round-robin order as the
baseline, so GATES changes only *type* priority, not fairness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.optypes import OpClass
from repro.obs.events import PriorityFlip
from repro.sim.sched.base import SchedulerView, WarpScheduler, rotate

#: Issue-priority class order for each possible highest type — the
#: [highest, LDST, SFU, lowest] ladder of section 4 — as op-class
#: indices into ``SchedulerView.ready_by_class``.
_CLASS_ORDER = {
    hi: (int(hi), int(OpClass.LDST), int(OpClass.SFU), int(lo))
    for hi, lo in ((OpClass.INT, OpClass.FP), (OpClass.FP, OpClass.INT))
}


class GatesScheduler(WarpScheduler):
    """Gating-aware two-level warp scheduler."""

    name = "gates"

    def __init__(self, n_slots: int = 48,
                 max_priority_cycles: Optional[int] = None,
                 blackout_aware: bool = False) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if max_priority_cycles is not None and max_priority_cycles < 1:
            raise ValueError("max_priority_cycles must be >= 1 or None")
        self.n_slots = n_slots
        self.max_priority_cycles = max_priority_cycles
        #: When True, consult the view's per-type blackout status for the
        #: extended priority switch (enabled for Blackout techniques).
        self.blackout_aware = blackout_aware
        # Span fast-forward: on cycles that issue nothing, ``order``'s
        # only mutation is ``_update_priority``, whose drained/blackout
        # triggers are exposed through ``idle_flip_pending`` (the
        # planner steps those cycles).  The timeout trigger depends on wall cycle
        # count, so a timeout-bounded GATES cannot be skipped.
        self.supports_idle_skip = max_priority_cycles is None
        self._highest = OpClass.INT
        self._last_slot = n_slots - 1
        self._priority_since = 0
        self.priority_switches = 0

    # ------------------------------------------------------------------

    @property
    def highest_priority(self) -> OpClass:
        """The CUDA-core type currently holding the top priority slot."""
        return self._highest

    def order(self, cycle: int, view: SchedulerView) -> Sequence[int]:
        # The priority update runs every cycle, ready warps or not.
        self._update_priority(cycle, view)
        if not view.ready:
            return view.ready
        # Type rank first, then the baseline's rotated slot order within
        # each type: the view's per-type ready lists, in ladder order.
        start = (self._last_slot + 1) % self.n_slots
        ready_by_class = view.ready_by_class
        ordered: List[int] = []
        for opx in _CLASS_ORDER[self._highest]:
            bucket = ready_by_class[opx]
            if bucket:
                ordered += rotate(bucket, start)
        return ordered

    def on_issue(self, cycle: int, slot: int) -> None:
        self._last_slot = slot

    def reset(self) -> None:
        self._highest = OpClass.INT
        self._last_slot = self.n_slots - 1
        self._priority_since = 0
        self.priority_switches = 0

    def idle_flip_pending(self, cycle: int, view: SchedulerView) -> bool:
        """Would ``_update_priority`` flip given ``view``, ignoring the
        timeout trigger?  (``supports_idle_skip`` is False whenever the
        timeout trigger is armed, so it never fires on a skipped span.)"""
        hi = self._highest
        lo = OpClass.FP if hi is OpClass.INT else OpClass.INT
        if view.actv_counts[hi] == 0 and view.actv_counts[lo] > 0:
            return True
        return (self.blackout_aware and view.type_in_blackout[hi]
                and not view.type_in_blackout[lo])

    # ------------------------------------------------------------------
    # priority logic
    # ------------------------------------------------------------------

    def _update_priority(self, cycle: int, view: SchedulerView) -> None:
        hi = self._highest
        lo = OpClass.FP if hi is OpClass.INT else OpClass.INT
        reason = None
        if view.actv_counts[hi] == 0 and view.actv_counts[lo] > 0:
            # The highest type's active subset drained: hand the top
            # slot to the other type (dynamic priority switching).
            reason = "drained"
        elif (self.blackout_aware and view.type_in_blackout[hi]
              and not view.type_in_blackout[lo]):
            # Coordinated Blackout extension: both clusters of the
            # highest type are asleep past waking, so let the other
            # type's warps drain meanwhile.
            reason = "blackout"
        elif (self.max_priority_cycles is not None
              and cycle - self._priority_since >= self.max_priority_cycles
              and view.actv_counts[lo] > 0):
            # Designer-set anti-starvation bound.
            reason = "timeout"
        if reason is not None:
            self._highest = lo
            self._priority_since = cycle
            self.priority_switches += 1
            if self.bus.enabled:
                self.bus.publish(PriorityFlip(cycle, lo.name, reason))
