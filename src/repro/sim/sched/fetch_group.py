"""Fetch-group two-level scheduler (Narasiman et al., MICRO-44).

A related-work baseline the paper discusses in section 8: warps are
partitioned into *fetch groups*; the scheduler prioritises one group
until its warps stall on long-latency events, then rotates to the next.
The goal there was latency hiding (staggering memory bursts between
groups), not power; we include it as an ablation reference so the
reproduction can show GATES' effect is about *type* clustering, not
just any clustering.
"""

from __future__ import annotations

from typing import List

from repro.sim.sched.base import SchedulerView, WarpScheduler, rotate


class FetchGroupScheduler(WarpScheduler):
    """Group-prioritised two-level warp scheduler."""

    name = "fetch_group"
    # ``order`` returns before any mutation when the ready set is
    # empty.  Ready warps that all stall move the group pointer at most
    # once, which ``idle_flip_pending`` reports.
    supports_idle_skip = True

    def __init__(self, n_slots: int = 48, group_size: int = 8) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.n_slots = n_slots
        self.group_size = group_size
        self.n_groups = (n_slots + group_size - 1) // group_size
        self._current_group = 0
        self._last_slot = n_slots - 1
        self.group_rotations = 0

    def order(self, cycle: int, view: SchedulerView) -> List[int]:
        if not view.ready:
            return []
        # Rotate away from a drained group: if the current group has no
        # ready warp, move to the next group that does (the Narasiman
        # "fetch group switch on long-latency stall" heuristic, observed
        # through readiness).
        group_size = self.group_size
        groups_with_ready = {slot // group_size for slot in view.ready}
        if self._current_group not in groups_with_ready:
            for offset in range(1, self.n_groups + 1):
                group = (self._current_group + offset) % self.n_groups
                if group in groups_with_ready:
                    self._current_group = group
                    self.group_rotations += 1
                    break
        current = self._current_group
        n_groups = self.n_groups
        # Rotated-slot order first, then a stable sort on the group key
        # alone — equivalent to the composite (group, rotated slot) key.
        # ``rotate`` may return the view's own list: copy before sorting.
        ready = list(rotate(view.ready,
                            (self._last_slot + 1) % self.n_slots))
        ready.sort(key=lambda slot: (slot // group_size - current)
                   % n_groups)
        return ready

    def on_issue(self, cycle: int, slot: int) -> None:
        self._last_slot = slot

    def idle_flip_pending(self, cycle: int, view: SchedulerView) -> bool:
        """Would ``order`` rotate to another group given ``view``?"""
        current = self._current_group
        group_size = self.group_size
        return bool(view.ready) and all(slot // group_size != current
                                        for slot in view.ready)

    def reset(self) -> None:
        self._current_group = 0
        self._last_slot = self.n_slots - 1
        self.group_rotations = 0
