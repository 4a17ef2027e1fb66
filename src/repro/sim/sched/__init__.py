"""Warp schedulers for the SM issue stage.

* :mod:`repro.sim.sched.base` -- the scheduler interface, the
  per-cycle view (ready slot lists, ACTV counters, blackout status)
  and the ``rotate`` helper.
* :mod:`repro.sim.sched.two_level` -- the baseline Two-level scheduler
  (Gebhart et al. [12]) the paper builds on.

The gating-aware scheduler (GATES) is part of the paper's contribution
and lives in :mod:`repro.core.gates`.
"""

from repro.sim.sched.base import SchedulerView, WarpScheduler
from repro.sim.sched.two_level import TwoLevelScheduler

__all__ = [
    "SchedulerView",
    "WarpScheduler",
    "TwoLevelScheduler",
]
