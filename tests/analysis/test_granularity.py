"""Tests for the gating-granularity analysis."""

import pytest

from repro.analysis.granularity import (
    gating_opportunity,
    granularity_comparison,
)
from repro.power.params import GatingParams

PARAMS = GatingParams(idle_detect=5, bet=14, wakeup_delay=3)


class TestGatingOpportunity:
    def test_short_periods_contribute_nothing(self):
        result = gating_opportunity({1: 10, 4: 10}, total_cycles=100,
                                    params=PARAMS)
        assert result.gating_events == 0
        assert result.gated_cycles == 0
        assert result.net_saved_cycles == 0.0
        assert result.idle_cycles == 50

    def test_loss_region_period_is_net_negative(self):
        # Length 10: gated 5 cycles, overhead worth 14 -> net -9.
        result = gating_opportunity({10: 1}, total_cycles=100,
                                    params=PARAMS)
        assert result.gating_events == 1
        assert result.gated_cycles == 5
        assert result.net_saved_cycles == pytest.approx(-9.0)

    def test_long_period_pays_off(self):
        # Length 50: gated 45, net 45 - 14 = 31.
        result = gating_opportunity({50: 2}, total_cycles=200,
                                    params=PARAMS)
        assert result.gated_cycles == 90
        assert result.net_saved_cycles == pytest.approx(62.0)
        assert result.savings_fraction == pytest.approx(0.31)

    def test_break_even_length_is_neutral(self):
        # Length idle_detect + bet = 19: gated 14 == overhead.
        result = gating_opportunity({19: 3}, total_cycles=100,
                                    params=PARAMS)
        assert result.net_saved_cycles == pytest.approx(0.0)

    def test_mixed_histogram_sums(self):
        result = gating_opportunity({3: 5, 10: 1, 50: 1},
                                    total_cycles=500, params=PARAMS)
        assert result.net_saved_cycles == pytest.approx(-9.0 + 31.0)
        assert result.idle_cycles == 15 + 10 + 50

    def test_validation(self):
        with pytest.raises(ValueError):
            gating_opportunity({0: 1}, total_cycles=10)
        with pytest.raises(ValueError):
            gating_opportunity({5: -1}, total_cycles=10)
        with pytest.raises(ValueError):
            gating_opportunity({}, total_cycles=-1)

    def test_empty_histogram(self):
        result = gating_opportunity({}, total_cycles=100)
        assert result.savings_fraction == 0.0
        assert result.idle_fraction == 0.0


class TestGranularityComparison:
    def test_unit_level_dominates_inside_busy_sm(self):
        # The paper's motivating case: units idle in long windows while
        # the SM as a whole never goes fully idle.
        sm_wide = {2: 20}                  # only idle slivers SM-wide
        unit = {40: 30}                    # long per-unit windows
        comparison = granularity_comparison(sm_wide, unit,
                                            total_cycles=2000,
                                            n_unit_domains=2,
                                            params=PARAMS)
        assert comparison["unit_level_savings"] > \
            comparison["sm_level_savings"]
        assert comparison["sm_level_savings"] == 0.0

    def test_fully_idle_sm_equalises(self):
        # If the whole SM idles in one huge window, SM-level gating is
        # as good per leakage unit as unit-level gating.
        histogram = {1000: 1}
        comparison = granularity_comparison(histogram, histogram,
                                            total_cycles=1000,
                                            n_unit_domains=1,
                                            params=PARAMS)
        assert comparison["sm_level_savings"] == pytest.approx(
            comparison["unit_level_savings"])

    def test_validation(self):
        with pytest.raises(ValueError):
            granularity_comparison({}, {}, total_cycles=10,
                                   n_unit_domains=0)


class TestOnSimulatorOutput:
    def test_sm_wide_tracker_collected(self, tiny_kernel,
                                       small_sm_config):
        from repro.core.techniques import Technique, build_sm
        from repro.sim.sm import StreamingMultiprocessor
        sm = build_sm(tiny_kernel, Technique.BASELINE,
                      sm_config=small_sm_config)
        result = sm.run()
        tracker = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER]
        assert tracker.busy_cycles + tracker.idle_cycles == result.cycles

    def test_sm_wide_idleness_below_per_unit_idleness(self):
        # SM-wide idle requires EVERY pipeline idle, so its idle count
        # can never exceed any single pipeline's.
        from repro.core.techniques import Technique, build_sm
        from repro.sim.sm import StreamingMultiprocessor
        from repro.workloads.registry import build_kernel
        kernel = build_kernel("hotspot", scale=0.25)
        sm = build_sm(kernel, Technique.BASELINE)
        result = sm.run()
        sm_idle = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER].idle_cycles
        for name in ("INT0", "INT1", "FP0", "FP1", "SFU", "LDST"):
            assert sm_idle <= result.stats.idle_trackers[name].idle_cycles
