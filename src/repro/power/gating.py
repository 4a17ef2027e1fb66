"""Per-domain power-gating state machine.

Implements the controller of Figure 2c.  One :class:`GatingDomain`
manages one gating switch — on our Fermi-like SM that means one per SP
cluster pipeline (INT0, INT1, FP0, FP1), mirroring the paper's "all 16
integer units within a cluster are operated by a single power gating
switch".

States (derived lazily from timestamps, so no per-cycle bookkeeping of
state labels is needed):

* ``ON`` — powered; the idle-detect counter runs while the pipeline is
  idle.
* ``GATED`` — sleeping.  The window is *uncompensated* until the gated
  length reaches the break-even time (BET), *compensated* beyond it.
* ``WAKING`` — the sleep switch re-opened; ``wakeup_delay`` cycles of
  leakage with no useful work before the domain is ON again.

The *policy* object decides (a) the idle count at which an idle domain
gates (:meth:`GatingPolicy.gate_threshold`) and (b) whether a wakeup
request may be honoured — that's the entire difference between
conventional power gating and the paper's Blackout variants, so the
Blackout/Coordinated controllers in :mod:`repro.core.blackout` are just
policies plugged into this machine.

Time advances through one method, :meth:`GatingDomain.advance`: a
stepped cycle advances one cycle, a skipped span its whole length.
:meth:`GatingDomain.next_event` bounds such a span, and it reads the
same gate rule the one-cycle advance applies.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import BlackoutBlocked, GateOff, GateOn, Wakeup
from repro.power.params import GatingParams


class DomainState(enum.Enum):
    """Observable power state of a gating domain."""

    ON = "on"
    GATED = "gated"
    WAKING = "waking"


@dataclass
class GatingStats:
    """Lifetime counters for one gating domain.

    ``compensated_cycles`` / ``uncompensated_cycles`` split every gated
    window at the BET boundary — the quantities behind Figure 8b.  A
    *critical wakeup* (Figure 6 / Adaptive idle-detect) is a wakeup
    granted at the exact cycle a blackout period expires, i.e. an
    instruction was already waiting when the BET countdown hit zero.
    """

    gating_events: int = 0
    wakeups: int = 0
    wakeups_uncompensated: int = 0
    critical_wakeups: int = 0
    gated_cycles: int = 0
    compensated_cycles: int = 0
    uncompensated_cycles: int = 0
    waking_cycles: int = 0
    on_cycles: int = 0
    denied_wakeups: int = 0

    #: Counter names as exported into the metrics registry: the
    #: dataclass fields in order (set below the class).
    METRIC_NAMES: ClassVar[Tuple[str, ...]] = ()

    def export_metrics(self, registry, domain: str) -> None:
        """Publish these counters into a metrics registry.

        Each field becomes ``<field>{domain="<name>"}``, making the
        registry the unified read side while this dataclass stays the
        hot-path storage.
        """
        for name in self.METRIC_NAMES:
            registry.counter(name, domain=domain).inc(getattr(self, name))


GatingStats.METRIC_NAMES = tuple(
    field.name for field in dataclasses.fields(GatingStats))


class GatingPolicy:
    """Decision hooks that differentiate gating schemes."""

    name = "none"

    def gate_threshold(self, domain: "GatingDomain", cycle: int) -> float:
        """Idle count at which ``domain`` closes its gate at ``cycle``.

        The one gate rule: an idle ON cycle increments the domain's idle
        counter and gates once the counter reaches the threshold, and
        the span planner predicts the gate-fire cycle from the same
        number.  ``float("inf")`` means "never while the rule's inputs
        hold".  The base rule is the domain's idle-detect window.
        """
        return domain.idle_detect

    def may_wake(self, domain: "GatingDomain", cycle: int) -> bool:
        """May a wakeup request on a gated ``domain`` be honoured now?"""
        raise NotImplementedError


class ConventionalPolicy(GatingPolicy):
    """Hu et al. [13]: gate after idle-detect, wake on demand.

    The wakeup may arrive before break-even, producing a net energy
    *loss* for that window — the weakness Blackout removes.
    """

    name = "conventional"

    def may_wake(self, domain: "GatingDomain", cycle: int) -> bool:
        return True


class GatingDomain:
    """One power-gated unit cluster and its controller."""

    __slots__ = ("name", "params", "policy", "bus", "idle_detect", "bet",
                 "wakeup_delay", "idle_counter", "stats", "_gated_since",
                 "_wake_done", "_finalized")

    def __init__(self, name: str, params: GatingParams,
                 policy: GatingPolicy,
                 bus: Optional[EventBus] = None) -> None:
        self.name = name
        self.params = params
        self.policy = policy
        #: Observability bus; the SM rebinds this to its own bus when the
        #: domain is attached (``attach_domain``), so domains built
        #: standalone default to the shared disabled bus.
        self.bus = bus if bus is not None else NULL_BUS
        #: Current idle-detect window; Adaptive idle-detect mutates this
        #: at epoch boundaries (the paper's incrementable register).
        self.idle_detect = params.idle_detect
        self.bet = params.bet
        self.wakeup_delay = params.wakeup_delay
        self.idle_counter = 0
        self.stats = GatingStats()
        self._gated_since: Optional[int] = None
        self._wake_done = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------

    def state(self, cycle: int) -> DomainState:
        """Power state at ``cycle``."""
        if self._gated_since is not None and cycle >= self._gated_since:
            return DomainState.GATED
        if cycle < self._wake_done:
            return DomainState.WAKING
        return DomainState.ON

    def is_gated(self, cycle: int) -> bool:
        """True when the gate is closed (or closing this cycle)."""
        return self._gated_since is not None

    def gated_length(self, cycle: int) -> int:
        """Completed gated cycles of the current window (0 if not gated)."""
        if self._gated_since is None:
            return 0
        return max(0, cycle - self._gated_since)

    def in_blackout(self, cycle: int) -> bool:
        """Gated and not yet past break-even: un-wakeable under Blackout."""
        return (self._gated_since is not None
                and self.gated_length(cycle) < self.bet)

    def blackout_remaining(self, cycle: int) -> int:
        """Cycles left on the BET countdown (0 when wakeable or ON)."""
        if self._gated_since is None:
            return 0
        return max(0, self.bet - self.gated_length(cycle))

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def advance(self, cycle: int, span: int, busy: bool) -> None:
        """End-of-cycle controller update for ``[cycle, cycle + span)``.

        ``busy`` is the pipeline's occupancy over the whole span; it
        must be False whenever the domain is gated — the SM never lets
        work into a gated pipeline, and gating is only triggered here,
        with the pipeline idle.  A stepped cycle passes ``span=1``.  A
        longer span must end no later than :meth:`next_event`, so no
        state transition falls inside it and the gate rule's inputs
        stay frozen; it then accounts exactly what ``span`` one-cycle
        advances would.

        Hot path (called per gated pipeline per stepped cycle): the
        state machine is decided from the raw timestamp fields
        directly, with the same ordering as :meth:`state` — GATED, then
        WAKING, then ON.
        """
        gated_since = self._gated_since
        if gated_since is not None and cycle >= gated_since:
            if busy:
                raise RuntimeError(
                    f"{self.name}: pipeline busy while gated at {cycle}")
            return  # gated accounting happens at wake/finalize
        stats = self.stats
        if cycle < self._wake_done:
            stats.waking_cycles += span
            return
        stats.on_cycles += span
        if busy:
            self.idle_counter = 0
            return
        self.idle_counter += span
        if self.idle_counter >= self.policy.gate_threshold(self, cycle):
            self._gate(cycle + span - 1)

    def next_event(self, cycle: int, busy: bool) -> float:
        """First cycle (>= ``cycle``) on which this domain must be stepped
        while its pipeline stays ``busy`` (or idle) from ``cycle`` on.

        The span planner (:mod:`repro.sim.fastforward`) steps every
        returned cycle, so each transition — the gate taking effect,
        the BET expiry that flips ``may_wake`` under Blackout, a wake
        completing, the gate-fire cycle itself — happens in a one-cycle
        :meth:`advance`.  The gate-fire cycle comes from the policy's
        :meth:`GatingPolicy.gate_threshold`: the increment precedes the
        comparison, so ``threshold - idle_counter - 1`` further idle
        cycles pass first.  A busy ON domain has no event (``inf``):
        the idle counter stays pinned at zero; the busy->idle edge is
        the caller's bound.  Busy while gated returns ``cycle``, so the
        stepped advance raises at the exact cycle.
        """
        gated_since = self._gated_since
        if gated_since is not None:
            if busy:
                return cycle
            if gated_since >= cycle:
                return gated_since
            expiry = gated_since + self.bet
            return expiry if expiry >= cycle else float("inf")
        if cycle < self._wake_done:
            return self._wake_done
        if busy:
            return float("inf")
        threshold = self.policy.gate_threshold(self, cycle)
        return cycle + max(0, threshold - self.idle_counter - 1)

    # ------------------------------------------------------------------
    # scheduler-facing actions
    # ------------------------------------------------------------------

    def request_wakeup(self, cycle: int) -> bool:
        """A ready instruction wants this unit.

        Returns True when the unit is usable *this* cycle.  When gated
        and the policy allows, the wake starts now and the unit becomes
        usable after ``wakeup_delay`` cycles.  During blackout the
        request is denied (and counted — denied requests landing on the
        expiry cycle are what make a wakeup *critical*).
        """
        state = self.state(cycle)
        if state is DomainState.ON and self._gated_since is None:
            return True
        if state is DomainState.WAKING:
            return False
        if not self.policy.may_wake(self, cycle):
            self.stats.denied_wakeups += 1
            if self.bus.enabled:
                self.bus.publish(BlackoutBlocked(
                    cycle, self.name, self.blackout_remaining(cycle)))
            return False
        self._wake(cycle)
        return False

    def _wake(self, cycle: int) -> None:
        assert self._gated_since is not None
        gated_len = self.gated_length(cycle)
        self.stats.wakeups += 1
        self.stats.gated_cycles += gated_len
        self.stats.uncompensated_cycles += min(gated_len, self.bet)
        self.stats.compensated_cycles += max(0, gated_len - self.bet)
        if gated_len < self.bet:
            self.stats.wakeups_uncompensated += 1
        if gated_len == self.bet:
            self.stats.critical_wakeups += 1
        self._gated_since = None
        self._wake_done = cycle + self.wakeup_delay
        self.idle_counter = 0
        if self.bus.enabled:
            self.bus.publish(GateOff(cycle, self.name, gated_len,
                                     compensated=gated_len >= self.bet))
            self.bus.publish(Wakeup(cycle, self.name,
                                    critical=gated_len == self.bet,
                                    delay=self.wakeup_delay))

    def _gate(self, cycle: int) -> None:
        # The switch closes at the end of this cycle; savings accrue
        # from the next cycle on.
        self._gated_since = cycle + 1
        self.stats.gating_events += 1
        self.idle_counter = 0
        if self.bus.enabled:
            self.bus.publish(GateOn(cycle, self.name))

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------

    def finalize(self, end_cycle: int) -> None:
        """Close the books on a window still gated when the run ends."""
        if self._finalized:
            return
        self._finalized = True
        if self._gated_since is None:
            return
        gated_len = max(0, end_cycle - self._gated_since)
        self.stats.gated_cycles += gated_len
        self.stats.uncompensated_cycles += min(gated_len, self.bet)
        self.stats.compensated_cycles += max(0, gated_len - self.bet)
        self._gated_since = None
        if self.bus.enabled:
            self.bus.publish(GateOff(end_cycle, self.name, gated_len,
                                     compensated=gated_len >= self.bet,
                                     final=True))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GatingDomain({self.name}, policy={self.policy.name}, "
                f"idle_detect={self.idle_detect})")
