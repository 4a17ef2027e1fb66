"""Edge-case tests for the gating state machine."""


from repro.core.blackout import NaiveBlackoutPolicy
from repro.power.gating import (
    ConventionalPolicy,
    DomainState,
    GatingDomain,
)
from repro.power.params import GatingParams


class TestZeroIdleDetect:
    def test_gates_on_first_idle_cycle(self):
        domain = GatingDomain("X", GatingParams(idle_detect=0, bet=5,
                                                wakeup_delay=1),
                              ConventionalPolicy())
        domain.advance(0, 1, busy=True)
        assert not domain.is_gated(1)
        domain.advance(1, 1, busy=False)
        assert domain.is_gated(2)

    def test_regates_immediately_after_wakeup_idle(self):
        domain = GatingDomain("X", GatingParams(idle_detect=0, bet=5,
                                                wakeup_delay=1),
                              ConventionalPolicy())
        domain.advance(0, 1, busy=False)
        assert domain.is_gated(1)
        domain.request_wakeup(5)
        # Awake at 6, still idle -> gates again right away.
        domain.advance(6, 1, busy=False)
        assert domain.is_gated(7)
        assert domain.stats.gating_events == 2


class TestWakeupRaces:
    def make(self):
        return GatingDomain("X", GatingParams(idle_detect=2, bet=6,
                                              wakeup_delay=3),
                            ConventionalPolicy())

    def idle_until_gated(self, domain):
        cycle = 0
        while not domain.is_gated(cycle):
            domain.advance(cycle, 1, busy=False)
            cycle += 1
        return cycle

    def test_second_request_during_waking_is_noop(self):
        domain = self.make()
        gated_at = self.idle_until_gated(domain)
        domain.request_wakeup(gated_at + 1)
        assert domain.stats.wakeups == 1
        # A second request while waking neither double-counts nor
        # shortens the wakeup.
        assert domain.request_wakeup(gated_at + 2) is False
        assert domain.stats.wakeups == 1
        assert domain.state(gated_at + 2) is DomainState.WAKING
        assert domain.state(gated_at + 4) is DomainState.ON

    def test_request_at_gating_instant(self):
        domain = self.make()
        gated_at = self.idle_until_gated(domain)
        # Wakeup at the very first gated cycle: zero savings, full
        # overhead -- legal under conventional gating.
        domain.request_wakeup(gated_at)
        assert domain.stats.wakeups == 1
        assert domain.stats.gated_cycles == 0
        assert domain.stats.wakeups_uncompensated == 1

    def test_idle_counting_resumes_after_wake(self):
        domain = self.make()
        gated_at = self.idle_until_gated(domain)
        domain.request_wakeup(gated_at + 10)
        wake_done = gated_at + 13
        domain.advance(gated_at + 10, 1, busy=False)  # waking
        domain.advance(gated_at + 11, 1, busy=False)
        domain.advance(gated_at + 12, 1, busy=False)
        assert domain.idle_counter == 0  # waking cycles don't count
        domain.advance(wake_done, 1, busy=False)
        assert domain.idle_counter == 1


class TestBlackoutEdges:
    def test_bet_one_wakes_next_cycle(self):
        domain = GatingDomain("X", GatingParams(idle_detect=1, bet=1,
                                                wakeup_delay=0),
                              NaiveBlackoutPolicy())
        domain.advance(0, 1, busy=False)
        assert domain.is_gated(1)
        assert domain.request_wakeup(1) is False  # gated_len 0 < bet 1
        assert domain.is_gated(1)
        domain.request_wakeup(2)                  # gated_len 1 == bet
        assert not domain.is_gated(2)
        assert domain.stats.critical_wakeups == 1

    def test_denied_requests_counted_each_cycle(self):
        domain = GatingDomain("X", GatingParams(idle_detect=1, bet=10,
                                                wakeup_delay=1),
                              NaiveBlackoutPolicy())
        domain.advance(0, 1, busy=False)
        for cycle in range(2, 8):
            domain.request_wakeup(cycle)
        assert domain.stats.denied_wakeups == 6
        assert domain.stats.wakeups == 0
