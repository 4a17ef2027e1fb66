"""Tests for the Naive and Coordinated Blackout policies."""

import pytest

from repro.core.blackout import (
    CoordinatedBlackoutPolicy,
    NaiveBlackoutPolicy,
)
from repro.power.gating import GatingDomain
from repro.power.params import GatingParams

PARAMS = GatingParams(idle_detect=3, bet=10, wakeup_delay=2)


def gate_by_idling(domain: GatingDomain, start: int = 0) -> int:
    cycle = start
    while not domain.is_gated(cycle):
        domain.advance(cycle, 1, busy=False)
        cycle += 1
    return cycle


class TestNaiveBlackout:
    def test_denies_wakeup_during_blackout(self):
        domain = GatingDomain("INT0", PARAMS, NaiveBlackoutPolicy())
        gated_at = gate_by_idling(domain)
        assert domain.request_wakeup(gated_at + 5) is False
        assert domain.is_gated(gated_at + 5)       # still asleep
        assert domain.stats.denied_wakeups == 1
        assert domain.stats.wakeups == 0

    def test_grants_wakeup_after_bet(self):
        domain = GatingDomain("INT0", PARAMS, NaiveBlackoutPolicy())
        gated_at = gate_by_idling(domain)
        domain.request_wakeup(gated_at + 10)
        assert not domain.is_gated(gated_at + 10)
        assert domain.stats.wakeups == 1
        assert domain.stats.critical_wakeups == 1  # woke exactly at expiry

    def test_no_uncompensated_wakeups_ever(self):
        # The defining Blackout property: every closed window has gated
        # length >= BET, so the loss region is empty.
        domain = GatingDomain("INT0", PARAMS, NaiveBlackoutPolicy())
        gated_at = gate_by_idling(domain)
        for offset in range(10):
            domain.request_wakeup(gated_at + offset)
        domain.request_wakeup(gated_at + 15)
        assert domain.stats.wakeups_uncompensated == 0
        assert domain.stats.compensated_cycles == 5

    def test_gates_by_idle_detect(self):
        domain = GatingDomain("INT0", PARAMS, NaiveBlackoutPolicy())
        gated_at = gate_by_idling(domain)
        assert gated_at == PARAMS.idle_detect


class TestCoordinatedBlackout:
    def make_pair(self, actv):
        state = {"actv": actv}
        policy = CoordinatedBlackoutPolicy(lambda: state["actv"])
        a = GatingDomain("INT0", PARAMS, policy)
        b = GatingDomain("INT1", PARAMS, policy)
        policy.register(a)
        policy.register(b)
        return a, b, state

    def test_registration_limits(self):
        policy = CoordinatedBlackoutPolicy(lambda: 0, max_domains=2)
        a = GatingDomain("INT0", PARAMS, policy)
        policy.register(a)
        with pytest.raises(ValueError, match="twice"):
            policy.register(a)
        b = GatingDomain("INT1", PARAMS, policy)
        policy.register(b)
        with pytest.raises(ValueError, match="at most 2"):
            policy.register(GatingDomain("INT2", PARAMS, policy))
        with pytest.raises(ValueError, match="max_domains"):
            CoordinatedBlackoutPolicy(lambda: 0, max_domains=0)

    def test_n_cluster_generalisation(self):
        # Kepler-style: six clusters coordinate.  Once one gates, the
        # rest follow the occupancy rule instead of idle-detect.
        state = {"actv": 0}
        policy = CoordinatedBlackoutPolicy(lambda: state["actv"])
        domains = [GatingDomain(f"INT{i}", PARAMS, policy)
                   for i in range(6)]
        for domain in domains:
            policy.register(domain)
        gate_by_idling(domains[0])
        # With no waiters, every other cluster gates on its first idle
        # cycle.
        for domain in domains[1:]:
            domain.advance(100, 1, busy=True)
            domain.advance(101, 1, busy=False)
            assert domain.is_gated(102)

    def test_n_cluster_keeps_one_awake_with_waiters(self):
        state = {"actv": 3}
        policy = CoordinatedBlackoutPolicy(lambda: state["actv"])
        domains = [GatingDomain(f"INT{i}", PARAMS, policy)
                   for i in range(4)]
        for domain in domains:
            policy.register(domain)
        gate_by_idling(domains[0])
        for domain in domains[1:]:
            for cycle in range(100, 160):
                domain.advance(cycle, 1, busy=False)
            assert not domain.is_gated(160)

    def test_peer_lookup(self):
        a, b, _ = self.make_pair(actv=0)
        gated_at = gate_by_idling(a)
        # Each cluster looks at its peers only, never at itself.
        assert a.policy.any_peer_gated(b, gated_at)
        assert not a.policy.any_peer_gated(a, gated_at)

    def test_both_on_uses_idle_detect(self):
        a, b, _ = self.make_pair(actv=5)
        gated_at = gate_by_idling(a)
        assert gated_at == PARAMS.idle_detect

    def test_second_cluster_gates_immediately_when_no_waiters(self):
        a, b, state = self.make_pair(actv=0)
        gate_by_idling(a)
        # b has been busy; it goes idle for a single cycle -> gates
        # immediately because a is gated and the subset is empty.
        b.advance(100, 1, busy=True)
        b.advance(101, 1, busy=False)
        assert b.is_gated(102)

    def test_second_cluster_never_gates_with_waiters(self):
        a, b, state = self.make_pair(actv=1)
        gate_by_idling(a)
        for cycle in range(100, 160):  # way past idle-detect
            b.advance(cycle, 1, busy=False)
        assert not b.is_gated(160)

    def test_waiter_arrival_flips_decision(self):
        a, b, state = self.make_pair(actv=0)
        gate_by_idling(a)
        state["actv"] = 2
        for cycle in range(100, 130):
            b.advance(cycle, 1, busy=False)
        assert not b.is_gated(130)
        state["actv"] = 0
        b.advance(130, 1, busy=False)
        assert b.is_gated(131)

    def test_blackout_wakeup_rules_apply(self):
        a, b, _ = self.make_pair(actv=5)
        gated_at = gate_by_idling(a)
        assert a.request_wakeup(gated_at + 3) is False
        assert a.is_gated(gated_at + 3)
        a.request_wakeup(gated_at + 10)
        assert not a.is_gated(gated_at + 10)

    def test_unpaired_policy_falls_back_to_idle_detect(self):
        policy = CoordinatedBlackoutPolicy(lambda: 0)
        solo = GatingDomain("INT0", PARAMS, policy)
        policy.register(solo)
        gated_at = gate_by_idling(solo)
        assert gated_at == PARAMS.idle_detect
