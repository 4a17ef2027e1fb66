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
* Nothing else swaps them: the paper's optional designer-set
  anti-starvation threshold is not modelled (no figure uses it), so
  liveness rests on INT/FP dependencies, as in the paper's
  configuration.

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
    # Span fast-forward: on cycles that issue nothing, ``order``'s only
    # mutation is ``_update_priority``, whose triggers are exposed
    # through ``idle_flip_pending`` (the planner steps those cycles).
    supports_idle_skip = True

    def __init__(self, n_slots: int = 48,
                 blackout_aware: bool = False) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        #: When True, consult the view's per-type blackout status for the
        #: extended priority switch (enabled for Blackout techniques).
        self.blackout_aware = blackout_aware
        self._highest = OpClass.INT
        self._lowest = OpClass.FP
        self._last_slot = n_slots - 1
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
        self._lowest = OpClass.FP
        self._last_slot = self.n_slots - 1
        self.priority_switches = 0

    def idle_flip_pending(self, cycle: int, view: SchedulerView) -> bool:
        """Would ``_update_priority`` flip given ``view``?"""
        return self._flip_reason(view) is not None

    # ------------------------------------------------------------------
    # priority logic
    # ------------------------------------------------------------------

    def _flip_reason(self, view: SchedulerView) -> Optional[str]:
        """Why the two priority ends swap on ``view``, or None."""
        hi = self._highest
        lo = self._lowest
        actv = view.actv_counts
        if actv[hi] == 0 and actv[lo] > 0:
            # The highest type's active subset drained: hand the top
            # slot to the other type (dynamic priority switching).
            return "drained"
        if (self.blackout_aware and view.type_in_blackout[hi]
                and not view.type_in_blackout[lo]):
            # Coordinated Blackout extension: both clusters of the
            # highest type are asleep past waking, so let the other
            # type's warps drain meanwhile.
            return "blackout"
        return None

    def _update_priority(self, cycle: int, view: SchedulerView) -> None:
        reason = self._flip_reason(view)
        if reason is not None:
            lo = self._lowest
            self._lowest = self._highest
            self._highest = lo
            self.priority_switches += 1
            if self.bus.enabled:
                self.bus.publish(PriorityFlip(cycle, lo.name, reason))
