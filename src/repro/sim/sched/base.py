"""Scheduler interface between the SM issue stage and warp schedulers.

Each cycle the SM builds the *active set* — one :class:`IssueCandidate`
per warp whose head instruction is not blocked on a long-latency memory
event — plus a :class:`SchedulerView` carrying the aggregate state the
paper's issue logic keeps in hardware (the INT_ACTV/FP_ACTV counters,
per-type blackout status).  The scheduler returns the *ready*
candidates in issue-priority order; the SM walks that order, skipping
candidates whose unit has a structural or power-gating hazard, until the
issue width is filled.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.isa.instructions import Instruction
from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.obs.bus import NULL_BUS, EventBus


@dataclass(frozen=True)
class IssueCandidate:
    """One active-set entry as seen by the issue stage.

    Attributes:
        slot: Resident warp slot index.
        age: Monotonic launch sequence number of the warp (lower = older);
            schedulers use it for oldest-first tie-breaking.
        inst: The warp's head instruction.
        ready: Scoreboard-clean bit (the paper's R bit).
    """

    slot: int
    age: int
    inst: Instruction
    ready: bool

    @property
    def op_class(self) -> OpClass:
        """Instruction type of the warp's head (the two-bit field)."""
        return self.inst.op_class


@dataclass
class SchedulerView:
    """Aggregate per-cycle state exposed to schedulers.

    Attributes:
        actv_counts: Active-set occupancy per instruction type — the
            hardware INT_ACTV / FP_ACTV counters (kept for all four
            types here; GATES only consults INT and FP).
        type_in_blackout: For each CUDA-core type, True when *every*
            cluster of that type is in un-wakeable blackout; GATES'
            extended priority switch consults this (section 5).
    """

    actv_counts: Dict[OpClass, int] = field(
        default_factory=lambda: dict.fromkeys(ALL_OP_CLASSES, 0))
    type_in_blackout: Dict[OpClass, bool] = field(
        default_factory=lambda: dict.fromkeys(ALL_OP_CLASSES, False))


def rotated_ready(candidates: Sequence[IssueCandidate], start: int,
                  n_slots: int) -> List[IssueCandidate]:
    """Ready candidates in rotated slot order, scan starting at ``start``.

    Semantically identical to the pattern every built-in scheduler used
    to spell out inline::

        ready = [c for c in candidates if c.ready]
        ready.sort(key=lambda c: (c.slot - start) % n_slots)

    but O(n) on the hot path: the SM hands schedulers candidates in
    ascending slot order with unique slots, so the modulo-key sort is
    exactly a rotation — the block of slots ``>= start`` first, then the
    wrap-around block below ``start``, each keeping its relative order.
    Inputs that are not slot-ascending (hand-built fixtures in tests)
    are detected by the same single pass and fall back to the stable
    sort, so the helper is a drop-in for arbitrary candidate lists.
    """
    ready = [c for c in candidates if c.ready]
    if len(ready) < 2:
        return ready
    prev = ready[0].slot
    for cand in ready[1:]:
        slot = cand.slot
        if slot <= prev:
            ready.sort(key=lambda c: (c.slot - start) % n_slots)
            return ready
        prev = slot
    if start <= ready[0].slot or start > prev:
        return ready
    for i, cand in enumerate(ready):
        if cand.slot >= start:
            return ready[i:] + ready[:i]
    return ready  # unreachable: some slot >= start exists


class WarpScheduler(abc.ABC):
    """A warp-issue priority policy."""

    #: Display name used in experiment records.
    name = "abstract"

    #: Whether :meth:`order` must see the *full* active set, stalled
    #: candidates included.  Schedulers that begin by filtering on
    #: ``c.ready`` (all the built-in round-robin family) set this False,
    #: which lets the SM skip materialising stalled-candidate objects on
    #: the per-cycle path; CCWS keeps the default because its throttle
    #: cutoff depends on ``len(candidates)``.
    needs_all_candidates = True

    #: Observability bus.  The SM rebinds this to its own bus at
    #: construction; the class-level default keeps standalone scheduler
    #: instances (unit tests) publishing into the shared disabled bus.
    bus: EventBus = NULL_BUS

    #: Whether the idle fast-forward (:mod:`repro.sim.fastforward`) may
    #: skip cycles on which this scheduler sees no ready candidates.  A
    #: scheduler must opt in only when (a) ``order`` on an empty ready
    #: set either mutates no state or the mutation is replayed exactly
    #: by :meth:`skip_idle_cycles`, and (b) any priority change that can
    #: fire on a no-ready cycle is reported by :meth:`idle_flip_pending`.
    supports_idle_skip = False

    #: Native ordering mode for the dense-step kernel
    #: (:mod:`repro.sim.kernel`), or None to have the kernel build the
    #: scalar candidate list and call :meth:`order` every cycle (always
    #: correct, just slower).  A scheduler may declare one of the
    #: built-in modes only when its ``order`` is *exactly* that
    #: behaviour: ``"rotate_after_last"`` (rotated ready scan starting
    #: after the last issuer), ``"rotate_every_cycle"`` (classic LRR —
    #: the pointer advances every ``order`` call, ready or not), or
    #: ``"gates"`` (the GATES rank-bucket rotation including its
    #: per-cycle ``_update_priority``).  The golden identity harness
    #: pins kernel-forced runs against the scalar path, so a wrong
    #: declaration fails loudly.
    dense_order_mode: "str | None" = None

    @abc.abstractmethod
    def order(self, cycle: int, candidates: Sequence[IssueCandidate],
              view: SchedulerView) -> List[IssueCandidate]:
        """Return the ready candidates in descending issue priority."""

    def on_issue(self, cycle: int, candidate: IssueCandidate) -> None:
        """Callback after ``candidate`` actually issued (optional)."""

    def reset(self) -> None:
        """Clear internal state before a fresh run (optional)."""

    def skip_idle_cycles(self, span: int) -> None:
        """Replay the per-cycle state drift of ``span`` no-ready cycles.

        Called by the fast-forward path instead of ``span`` individual
        ``order`` calls with an empty ready set.  Default: nothing (the
        scheduler's ``order`` is pure on empty input).
        """

    def idle_flip_pending(self, cycle: int, view: SchedulerView) -> bool:
        """True when the scheduler would change internal priority state
        at ``cycle`` even with no ready candidates, given ``view``.

        The fast-forward planner real-steps such cycles so the change
        happens inside an ordinary ``order`` call.  Default: False.
        """
        return False
