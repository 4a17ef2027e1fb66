"""Tests for statistics collection and the idle-period tracker."""

from itertools import groupby

import pytest

from repro.isa.optypes import OpClass
from repro.sim.stats import IdlePeriodTracker, SMStats


def feed(tracker: IdlePeriodTracker, pattern) -> None:
    """Feed a per-cycle busy pattern as its maximal busy/idle spans."""
    for busy, run in groupby(pattern):
        span = len(list(run))
        if busy:
            tracker.observe_busy_span(span)
        else:
            tracker.observe_idle_span(span)


def histogram_mass(tracker: IdlePeriodTracker) -> int:
    """Idle cycles accounted in the histogram's periods."""
    return sum(length * count for length, count in tracker.histogram.items())


class TestIdlePeriodTracker:
    def test_counts_busy_and_idle(self):
        tracker = IdlePeriodTracker()
        feed(tracker, [True, False, False, True, False, True])
        tracker.finalize()
        assert tracker.busy_cycles == 3
        assert tracker.idle_cycles == 3

    def test_records_maximal_runs(self):
        tracker = IdlePeriodTracker()
        feed(tracker, [True, False, False, True, False, False, False, True])
        tracker.finalize()
        assert tracker.histogram == {2: 1, 3: 1}

    def test_trailing_run_needs_finalize(self):
        tracker = IdlePeriodTracker()
        feed(tracker, [True, False, False])
        assert tracker.histogram == {}
        tracker.finalize()
        assert tracker.histogram == {2: 1}

    def test_finalize_idempotent_on_flushed_state(self):
        tracker = IdlePeriodTracker()
        tracker.observe_idle_span(1)
        tracker.finalize()
        tracker.finalize()
        assert tracker.histogram == {1: 1}

    def test_double_finalize_never_splits_trailing_period(self):
        # Regression: harness and timeline/analysis paths may both
        # finalize the same run; the trailing idle period must land in
        # the Figure 3 histogram exactly once, as one period.
        tracker = IdlePeriodTracker()
        feed(tracker, [True, False, False, False])
        for _ in range(4):
            tracker.finalize()
        assert tracker.histogram == {3: 1}
        assert histogram_mass(tracker) == tracker.idle_cycles

    def test_observe_after_finalize_raises(self):
        tracker = IdlePeriodTracker()
        tracker.observe_idle_span(1)
        tracker.finalize()
        with pytest.raises(RuntimeError):
            tracker.observe_idle_span(1)
        with pytest.raises(RuntimeError):
            tracker.observe_busy_span(1)
        # The failed observations left the books untouched.
        assert tracker.histogram == {1: 1}
        assert tracker.idle_cycles == 1
        assert tracker.busy_cycles == 0

    def test_invariant_idle_cycles_equal_histogram_mass(self):
        tracker = IdlePeriodTracker()
        feed(tracker, [False, False, True, False, True, True, False, False,
                       False, True, False])
        tracker.finalize()
        assert histogram_mass(tracker) == tracker.idle_cycles

    def test_all_busy_yields_no_periods(self):
        tracker = IdlePeriodTracker()
        tracker.observe_busy_span(10)
        tracker.finalize()
        assert tracker.histogram == {}
        assert tracker.idle_cycles == 0


class TestSMStats:
    def test_warp_population_sampling(self):
        stats = SMStats()
        stats.active_warp_sum = 4 + 8
        stats.pending_warp_sum = 2 + 0
        stats.cycles = 2
        assert stats.avg_active_warps == pytest.approx(6.0)
        assert stats.avg_pending_warps == pytest.approx(1.0)

    def test_zero_cycles_safe(self):
        stats = SMStats()
        assert stats.avg_active_warps == 0.0
        assert stats.ipc == 0.0

    def test_tracker_is_lazily_created_and_cached(self):
        stats = SMStats()
        t1 = stats.tracker("INT0")
        t2 = stats.tracker("INT0")
        assert t1 is t2

    def test_idle_fraction_averages_pipelines(self):
        stats = SMStats()
        stats.cycles = 10
        a = stats.tracker("INT0")
        b = stats.tracker("INT1")
        a.observe_idle_span(4)
        a.observe_busy_span(6)
        b.observe_idle_span(8)
        b.observe_busy_span(2)
        assert stats.idle_fraction(["INT0", "INT1"]) == pytest.approx(0.6)

    def test_idle_fraction_empty_inputs(self):
        stats = SMStats()
        assert stats.idle_fraction([]) == 0.0

    def test_finalize_flushes_all_trackers(self):
        stats = SMStats()
        stats.tracker("A").observe_idle_span(1)
        stats.tracker("B").observe_idle_span(1)
        stats.finalize()
        assert stats.tracker("A").histogram == {1: 1}
        assert stats.tracker("B").histogram == {1: 1}

    def test_issued_by_class_initialised(self):
        stats = SMStats()
        assert set(stats.issued_by_class) == set(OpClass)
