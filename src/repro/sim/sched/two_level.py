"""The baseline warp scheduler.

:class:`TwoLevelScheduler` is the paper's baseline (Gebhart et al. [12]):
warps blocked on long-latency events live in a pending set (the SM
excludes them from the active set), and the scheduler greedily issues
ready warps from the active set *without regard to instruction type* —
the behaviour section 3.1 blames for interspersing INT and FP
instructions and chopping idle windows into useless slivers.

Greedy selection is modelled as a loose round-robin over warp slots
starting just after the last slot that issued, which is how the
interleaving arises in GPGPU-Sim's two-level configuration.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.sched.base import SchedulerView, WarpScheduler, rotate


class TwoLevelScheduler(WarpScheduler):
    """Greedy two-level warp scheduler (paper baseline)."""

    name = "two_level"
    # ``order`` mutates nothing (only ``on_issue`` moves the pointer),
    # so skipping cycles that issue nothing is trivially safe.
    supports_idle_skip = True

    def __init__(self, n_slots: int = 48) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self._last_slot = n_slots - 1

    def order(self, cycle: int, view: SchedulerView) -> Sequence[int]:
        # Rotate slot order so the scan begins after the last issuer;
        # type plays no role -- that is precisely the baseline's flaw.
        return rotate(view.ready, (self._last_slot + 1) % self.n_slots)

    def on_issue(self, cycle: int, slot: int) -> None:
        self._last_slot = slot

    def reset(self) -> None:
        self._last_slot = self.n_slots - 1

