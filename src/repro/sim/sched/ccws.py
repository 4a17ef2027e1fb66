"""Cache-conscious warp scheduler (CCWS, Rogers et al., MICRO-45).

A related-work baseline from the paper's section 8: when the lost-
locality monitor reports that warps are evicting each other's working
sets, the scheduler throttles multithreading — only the oldest few
warps keep issue privileges until the aggregate score decays, giving
each survivor enough cache to stop thrashing.

This is a simplification of Rogers' point system (per-warp scores
there gate individual warps; here the aggregate score shrinks the
issuable-warp window), sufficient to reproduce the behavioural contrast
with GATES: CCWS clusters *cache footprints*, GATES clusters
*instruction types* — only the latter lengthens per-unit idle windows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.locality import LostLocalityMonitor
from repro.sim.sched.base import SchedulerView, WarpScheduler, rotate


class CCWSScheduler(WarpScheduler):
    """Two-level scheduling with lost-locality warp throttling."""

    name = "ccws"
    # With an empty ready set, ``order`` mutates nothing; ready warps
    # filtered out by the throttle advance its counter even when none
    # could issue.  The decay hook below pins every cycle via
    # idle_next_event, so no span of a CCWS run is ever skipped —
    # correct, just not fast.
    supports_idle_skip = True

    def __init__(self, n_slots: int = 48,
                 monitor: Optional[LostLocalityMonitor] = None,
                 score_per_excluded_warp: float = 64.0,
                 min_active_warps: int = 2) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if score_per_excluded_warp <= 0:
            raise ValueError("score_per_excluded_warp must be positive")
        if min_active_warps < 1:
            raise ValueError("min_active_warps must be >= 1")
        self.n_slots = n_slots
        self.monitor = monitor or LostLocalityMonitor()
        self.score_per_excluded_warp = score_per_excluded_warp
        self.min_active_warps = min_active_warps
        self._last_slot = n_slots - 1
        self.throttled_cycles = 0

    def allowed_warps(self, n_active: int) -> int:
        """How many (oldest) warps may issue given the current score."""
        excluded = int(self.monitor.total_score()
                       / self.score_per_excluded_warp)
        return max(self.min_active_warps, n_active - excluded)

    def order(self, cycle: int, view: SchedulerView) -> Sequence[int]:
        ready = view.ready
        active = view.active
        allowed = self.allowed_warps(len(active))
        if allowed < len(active):
            # Issue privileges go to the oldest active warps (they own
            # the victim-tagged working sets worth protecting).
            privileged = set(sorted(active,
                                    key=view.ages.__getitem__)[:allowed])
            filtered = [slot for slot in ready if slot in privileged]
            if len(filtered) < len(ready):
                self.throttled_cycles += 1
            ready = filtered
        return rotate(ready, (self._last_slot + 1) % self.n_slots)

    def on_issue(self, cycle: int, slot: int) -> None:
        self._last_slot = slot

    def reset(self) -> None:
        self._last_slot = self.n_slots - 1
        self.throttled_cycles = 0


class MonitorDecayHook:
    """Cycle hook that drives the monitor's score decay."""

    def __init__(self, monitor: LostLocalityMonitor) -> None:
        self.monitor = monitor

    def on_cycle(self, cycle: int) -> None:
        self.monitor.on_cycle(cycle)

    def idle_next_event(self, cycle: int) -> int:
        # The monitor's score decays every cycle; there is no cheap way
        # to replay that in bulk, so report "something happens now",
        # which blocks any skip while this hook is installed.
        return cycle
