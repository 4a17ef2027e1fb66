"""Tests for the power-gating state machine (conventional policy)."""

import pytest

from repro.power.gating import (
    ConventionalPolicy,
    DomainState,
    GatingDomain,
)
from repro.power.params import GatingParams

PARAMS = GatingParams(idle_detect=3, bet=10, wakeup_delay=2)


def make_domain(params: GatingParams = PARAMS) -> GatingDomain:
    return GatingDomain("INT0", params, ConventionalPolicy())


def idle_until_gated(domain: GatingDomain, start: int) -> int:
    """Feed idle cycles until the domain gates; returns first gated cycle."""
    cycle = start
    while not domain.is_gated(cycle):
        domain.advance(cycle, 1, busy=False)
        cycle += 1
    return cycle


class TestStateMachine:
    def test_starts_on(self):
        domain = make_domain()
        assert domain.state(0) is DomainState.ON
        assert not domain.is_gated(0)

    def test_busy_resets_idle_counter(self):
        domain = make_domain()
        domain.advance(0, 1, busy=False)
        domain.advance(1, 1, busy=False)
        domain.advance(2, 1, busy=True)
        assert domain.idle_counter == 0
        assert not domain.is_gated(3)

    def test_gates_after_idle_detect(self):
        domain = make_domain()
        for cycle in range(3):
            domain.advance(cycle, 1, busy=False)
        # idle_counter reached 3 at cycle 2; gate takes effect cycle 3.
        assert domain.is_gated(3)
        assert domain.state(3) is DomainState.GATED
        assert domain.stats.gating_events == 1

    def test_wakeup_takes_wakeup_delay(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        wake_cycle = gated_at + 5
        assert domain.request_wakeup(wake_cycle) is False
        assert domain.state(wake_cycle) is DomainState.WAKING
        assert domain.state(wake_cycle + 1) is DomainState.WAKING
        assert domain.state(wake_cycle + 2) is DomainState.ON

    def test_request_on_powered_domain_is_immediate(self):
        domain = make_domain()
        assert domain.request_wakeup(0) is True

    def test_conventional_wakes_during_uncompensated(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 2)  # well before BET=10
        assert domain.stats.wakeups == 1
        assert domain.stats.wakeups_uncompensated == 1

    def test_zero_wakeup_delay(self):
        domain = make_domain(GatingParams(idle_detect=1, bet=5,
                                          wakeup_delay=0))
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 1)
        assert domain.state(gated_at + 1) is DomainState.ON


class TestAccounting:
    def test_gated_cycles_split_at_bet(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 25)   # 25 gated, BET=10
        assert domain.stats.gated_cycles == 25
        assert domain.stats.uncompensated_cycles == 10
        assert domain.stats.compensated_cycles == 15

    def test_short_window_all_uncompensated(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 4)
        assert domain.stats.uncompensated_cycles == 4
        assert domain.stats.compensated_cycles == 0

    def test_critical_wakeup_detection(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 10)   # exactly BET
        assert domain.stats.critical_wakeups == 1

    def test_non_critical_when_later(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.request_wakeup(gated_at + 11)
        assert domain.stats.critical_wakeups == 0

    def test_finalize_closes_open_window(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.finalize(gated_at + 30)
        assert domain.stats.gated_cycles == 30
        assert domain.stats.wakeups == 0  # never woke, just ended

    def test_finalize_idempotent(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        domain.finalize(gated_at + 30)
        domain.finalize(gated_at + 40)
        assert domain.stats.gated_cycles == 30

    def test_on_and_waking_cycles_counted(self):
        domain = make_domain()
        domain.advance(0, 1, busy=True)
        assert domain.stats.on_cycles == 1
        gated_at = idle_until_gated(domain, 1)
        domain.request_wakeup(gated_at)
        domain.advance(gated_at, 1, busy=False)
        assert domain.stats.waking_cycles == 1


class TestInvariants:
    def test_busy_while_gated_rejected(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        with pytest.raises(RuntimeError, match="busy while gated"):
            domain.advance(gated_at, 1, busy=True)

    def test_gated_length_monotonic(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        assert domain.gated_length(gated_at) == 0
        assert domain.gated_length(gated_at + 7) == 7

    def test_blackout_remaining_conventional(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        assert domain.blackout_remaining(gated_at) == 10
        assert domain.blackout_remaining(gated_at + 4) == 6
        assert domain.blackout_remaining(gated_at + 30) == 0

    def test_in_blackout_window(self):
        domain = make_domain()
        gated_at = idle_until_gated(domain, 0)
        assert domain.in_blackout(gated_at + 9)
        assert not domain.in_blackout(gated_at + 10)
