"""Warp schedulers for the SM issue stage.

* :mod:`repro.sim.sched.base` -- the scheduler interface and the
  per-cycle view (candidates, ACTV counters, blackout status).
* :mod:`repro.sim.sched.two_level` -- the baseline Two-level scheduler
  (Gebhart et al. [12]) the paper builds on, plus a single-level loose
  round-robin scheduler for ablations.

The gating-aware scheduler (GATES) is part of the paper's contribution
and lives in :mod:`repro.core.gates`.
"""

from repro.sim.sched.base import IssueCandidate, SchedulerView, WarpScheduler
from repro.sim.sched.two_level import TwoLevelScheduler, LooseRoundRobinScheduler
from repro.sim.sched.fetch_group import FetchGroupScheduler
from repro.sim.sched.ccws import CCWSScheduler

__all__ = [
    "IssueCandidate",
    "SchedulerView",
    "WarpScheduler",
    "TwoLevelScheduler",
    "LooseRoundRobinScheduler",
    "FetchGroupScheduler",
    "CCWSScheduler",
]
