"""Property tests: idle-period tracking and region analysis."""

from hypothesis import given, strategies as st

from repro.analysis.idle_periods import (
    histogram_series,
    mean_idle_length,
    region_fractions,
)
from repro.sim.stats import IdlePeriodTracker
from tests.sim.test_stats import feed, histogram_mass

busy_patterns = st.lists(st.booleans(), min_size=0, max_size=400)


@given(pattern=busy_patterns)
def test_histogram_mass_equals_idle_cycles(pattern):
    tracker = IdlePeriodTracker()
    feed(tracker, pattern)
    tracker.finalize()
    assert histogram_mass(tracker) == tracker.idle_cycles
    assert tracker.busy_cycles + tracker.idle_cycles == len(pattern)


@given(pattern=busy_patterns)
def test_period_count_matches_transitions(pattern):
    tracker = IdlePeriodTracker()
    feed(tracker, pattern)
    tracker.finalize()
    # Number of maximal idle runs computed independently.
    runs = 0
    previous_busy = True
    for busy in pattern:
        if not busy and previous_busy:
            runs += 1
        previous_busy = busy
    assert sum(tracker.histogram.values()) == runs


@given(pattern=busy_patterns,
       idle_detect=st.integers(min_value=0, max_value=10),
       bet=st.integers(min_value=1, max_value=30))
def test_region_fractions_partition(pattern, idle_detect, bet):
    tracker = IdlePeriodTracker()
    feed(tracker, pattern)
    tracker.finalize()
    regions = region_fractions(tracker.histogram, idle_detect, bet)
    if tracker.histogram:
        assert sum(regions.as_tuple()) == pytest_approx(1.0)
    else:
        assert regions.as_tuple() == (0.0, 0.0, 0.0)


@given(histogram=st.dictionaries(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=50), max_size=30),
    max_length=st.integers(min_value=1, max_value=60))
def test_series_preserves_total_frequency(histogram, max_length):
    series = histogram_series(histogram, max_length=max_length)
    total = sum(f for _, f in series)
    if histogram:
        assert abs(total - 1.0) < 1e-9
    assert len(series) == max_length


@given(histogram=st.dictionaries(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
def test_mean_idle_length_within_bounds(histogram):
    mean = mean_idle_length(histogram)
    assert min(histogram) <= mean <= max(histogram)


def pytest_approx(x, tol=1e-9):
    class _Approx:
        def __eq__(self, other):
            return abs(other - x) < tol
    return _Approx()
