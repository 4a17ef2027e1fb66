"""Scheduler interface between the SM issue stage and warp schedulers.

Each cycle the SM classifies its resident warps and fills one
:class:`SchedulerView`: the ascending slot list of the *ready* subset of
the *active set* (warps whose head instruction is not blocked on a
long-latency memory event), the ready slots split by head instruction
type, and the aggregate state the paper's issue logic keeps in hardware
(the INT_ACTV/FP_ACTV counters, per-type blackout status).
The scheduler returns the ready slots in issue-priority order; the SM
walks that order, skipping warps whose unit has a structural or
power-gating hazard, until the issue width is filled.

The serial step and the dense kernel hand the scheduler the same view,
so each scheduler states its ordering exactly once.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.obs.bus import NULL_BUS, EventBus


@dataclass
class SchedulerView:
    """Per-cycle state exposed to schedulers.

    The slot lists are owned by the SM (or the dense kernel): a
    scheduler reads them but never mutates them, and its ``order`` may
    return one of them as is.

    Attributes:
        actv_counts: Active-set occupancy per instruction type — the
            hardware INT_ACTV / FP_ACTV counters (kept for all four
            types here, a list indexed by ``OpClass``; GATES only
            consults INT and FP).
        type_in_blackout: For each CUDA-core type, True when *every*
            cluster of that type is in un-wakeable blackout; GATES'
            extended priority switch consults this (section 5).
        ready: Ready slots (scoreboard-clean head, the paper's R bit),
            ascending.
        ready_by_class: The ready slots split by head instruction type:
            four ascending lists indexed by ``int(OpClass)``.
    """

    actv_counts: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    type_in_blackout: Dict[OpClass, bool] = field(
        default_factory=lambda: dict.fromkeys(ALL_OP_CLASSES, False))
    ready: Sequence[int] = ()
    ready_by_class: Sequence[Sequence[int]] = ((), (), (), ())


def rotate(slots: Sequence[int], start: int) -> Sequence[int]:
    """Rotate an ascending unique slot list to begin at ``start``.

    Slots ``>= start`` come first, then the wrap-around block below
    ``start`` — the loose round-robin scan order every built-in
    scheduler uses.  Returns ``slots`` itself when no rotation is
    needed, so callers must not mutate the result.
    """
    index = bisect_left(slots, start)
    if index == 0 or index == len(slots):
        return slots
    return slots[index:] + slots[:index]


class WarpScheduler(abc.ABC):
    """A warp-issue priority policy."""

    #: Display name used in experiment records.
    name = "abstract"

    #: Observability bus.  The SM rebinds this to its own bus at
    #: construction; the class-level default keeps standalone scheduler
    #: instances (unit tests) publishing into the shared disabled bus.
    bus: EventBus = NULL_BUS

    #: Whether the span fast-forward (:mod:`repro.sim.fastforward`) may
    #: skip cycles on which nothing issues: no warp is ready, or every
    #: ready head is an LDST instruction held by MSHR back-pressure.  A
    #: scheduler must opt in only when, on such a cycle, ``order``
    #: returns all of ``view.ready`` and mutates no state except what
    #: :meth:`idle_flip_pending` reports.
    supports_idle_skip = False

    @abc.abstractmethod
    def order(self, cycle: int, view: SchedulerView) -> Sequence[int]:
        """Return ``view.ready`` in descending issue priority.

        Called every stepped cycle, ready warps or not.  Must not
        mutate the view's lists; may return one of them.
        """

    def on_issue(self, cycle: int, slot: int) -> None:
        """Callback after the warp in ``slot`` actually issued (optional)."""

    def reset(self) -> None:
        """Clear internal state before a fresh run (optional)."""

    def idle_flip_pending(self, cycle: int, view: SchedulerView) -> bool:
        """True when ``order`` at ``cycle`` on ``view`` would change
        state although nothing issues (e.g. a priority flip).

        The fast-forward planner steps such cycles so the change
        happens inside an ordinary ``order`` call.  Default: False.
        """
        return False
