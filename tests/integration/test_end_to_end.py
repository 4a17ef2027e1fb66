"""End-to-end invariants that must hold for every technique."""

import pytest

from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ExecUnitKind
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import SMALL_SM, TEST_SCALE

ALL_TECHNIQUES = list(Technique)


def run(technique: Technique, benchmark: str = "hotspot"):
    kernel = build_kernel(benchmark, scale=TEST_SCALE)
    sm = build_sm(kernel, technique, sm_config=SMALL_SM,
                  dram_latency=get_profile(benchmark).dram_latency)
    return kernel, sm.run()


@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
class TestUniversalInvariants:
    def test_all_work_completes(self, technique):
        kernel, result = run(technique)
        assert result.stats.instructions_retired == \
            kernel.total_instructions
        assert result.stats.instructions_issued == \
            kernel.total_instructions

    def test_domain_cycle_accounting_closes(self, technique):
        _, result = run(technique)
        for name, stats in result.domain_stats.items():
            total = stats.on_cycles + stats.waking_cycles + \
                stats.gated_cycles
            # A wakeup in progress at end-of-run leaves up to
            # wakeup_delay cycles unaccounted.
            assert result.cycles - 3 <= total <= result.cycles

    def test_gated_split_matches_total(self, technique):
        _, result = run(technique)
        for stats in result.domain_stats.values():
            assert stats.compensated_cycles + stats.uncompensated_cycles \
                == stats.gated_cycles

    def test_wakeups_never_exceed_gating_events(self, technique):
        _, result = run(technique)
        for stats in result.domain_stats.values():
            assert stats.wakeups <= stats.gating_events

    def test_idle_accounting_per_pipeline(self, technique):
        _, result = run(technique)
        for tracker in result.stats.idle_trackers.values():
            assert tracker.busy_cycles + tracker.idle_cycles == \
                result.cycles
            assert tracker.recorded_idle_cycles() == tracker.idle_cycles

    def test_gated_cycles_bounded_by_idle_cycles(self, technique):
        # A domain can only be gated while its pipeline is idle.
        _, result = run(technique)
        for name, stats in result.domain_stats.items():
            tracker = result.stats.idle_trackers[name]
            assert stats.gated_cycles <= tracker.idle_cycles


BLACKOUT_TECHNIQUES = [Technique.NAIVE_BLACKOUT, Technique.COORD_BLACKOUT,
                       Technique.WARPED_GATES, Technique.BLACKOUT_NO_GATES]


@pytest.mark.parametrize("technique", BLACKOUT_TECHNIQUES)
class TestBlackoutInvariants:
    def test_no_uncompensated_wakeups(self, technique):
        # Blackout's defining guarantee: no window ends before BET.
        _, result = run(technique)
        for stats in result.domain_stats.values():
            assert stats.wakeups_uncompensated == 0

    def test_uncompensated_cycles_only_from_bet_window(self, technique):
        # Every woken window contributes exactly BET uncompensated
        # cycles; only the final (never-woken) window may contribute
        # fewer.
        _, result = run(technique)
        for stats in result.domain_stats.values():
            if stats.wakeups:
                assert stats.uncompensated_cycles >= 14 * stats.wakeups


class TestConventionalBehaviour:
    def test_conv_pg_can_wake_early(self):
        _, result = run(Technique.CONV_PG)
        total_uncomp = sum(s.wakeups_uncompensated
                           for s in result.domain_stats.values())
        # hotspot's fragmented idleness makes early wakeups common.
        assert total_uncomp > 0

    def test_conv_denied_wakeups_never_happen(self):
        _, result = run(Technique.CONV_PG)
        for stats in result.domain_stats.values():
            assert stats.denied_wakeups == 0


class TestCrossTechnique:
    def test_instructions_identical_across_techniques(self):
        counts = set()
        for technique in (Technique.BASELINE, Technique.CONV_PG,
                          Technique.WARPED_GATES):
            _, result = run(technique)
            counts.add(result.stats.instructions_retired)
        assert len(counts) == 1

    def test_baseline_fastest_or_close(self):
        _, base = run(Technique.BASELINE)
        for technique in (Technique.CONV_PG, Technique.NAIVE_BLACKOUT,
                          Technique.WARPED_GATES):
            _, result = run(technique)
            # Gating can cost cycles but must stay within a sane band.
            assert result.cycles <= base.cycles * 1.5

    def test_integer_only_benchmark_never_wakes_fp(self):
        kernel = build_kernel("lavaMD", scale=TEST_SCALE)
        sm = build_sm(kernel, Technique.WARPED_GATES, sm_config=SMALL_SM)
        result = sm.run()
        fp = result.gating_totals(ExecUnitKind.FP)
        assert fp.wakeups == 0
        # Both FP clusters gate once and sleep through the whole run.
        assert fp.gating_events == 2
        assert result.unit_activity(ExecUnitKind.FP).issues == 0
