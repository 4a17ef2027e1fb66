"""Tests for the fetch-group scheduler (Narasiman-style baseline)."""

import pytest

from repro.isa.optypes import OpClass
from repro.sim.sched.fetch_group import FetchGroupScheduler
from tests.sim.views import make_view, ready_ints


class TestGrouping:
    def test_group_count(self):
        assert FetchGroupScheduler(n_slots=48, group_size=8).n_groups == 6
        assert FetchGroupScheduler(n_slots=10, group_size=4).n_groups == 3

    def test_current_group_first(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        ordered = sched.order(0, ready_ints((0, 5, 12)))
        # Group 0 is current, so slot 0 leads.
        assert ordered[0] == 0

    def test_rotates_when_current_group_drains(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        # Nothing ready in group 0; groups 1 and 3 have ready warps.
        ordered = sched.order(0, ready_ints((5, 13)))
        assert ordered[0] == 5          # nearest group wins
        assert sched.group_rotations == 1

    def test_stays_on_group_while_it_has_work(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        view = ready_ints((1, 9))
        sched.order(0, view)
        sched.order(1, view)
        assert sched.group_rotations == 0

    def test_wraps_around_groups(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        sched._current_group = 3
        ordered = sched.order(0, ready_ints((2,)))  # only group 0 ready
        assert ordered[0] == 2
        assert sched._current_group == 0

    def test_not_ready_filtered(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=4)
        view = make_view([(0, OpClass.INT, False), (1, OpClass.INT, True)])
        assert sched.order(0, view) == [1]

    def test_empty_ready_set(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=4)
        assert sched.order(0, make_view([(0, OpClass.INT, False)])) == []
        assert sched.group_rotations == 0

    def test_type_blind_within_group(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=8)
        view = make_view([(0, OpClass.INT, True), (1, OpClass.FP, True)])
        assert sched.order(0, view) == [0, 1]

    def test_reset(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        sched.order(0, ready_ints((13,)))
        sched.reset()
        assert sched._current_group == 0
        assert sched.group_rotations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FetchGroupScheduler(n_slots=0)
        with pytest.raises(ValueError):
            FetchGroupScheduler(n_slots=8, group_size=0)


class TestEndToEnd:
    def test_runs_full_benchmark(self):
        from repro.core.techniques import (Technique, TechniqueConfig,
                                           run_benchmark)
        result = run_benchmark("hotspot",
                               TechniqueConfig(
                                   Technique.FETCH_GROUP_CONV_PG),
                               scale=0.25)
        assert result.stats.instructions_retired > 0
        assert result.technique == "fetch_group_conv_pg"
        # Conventional gating attached.
        assert set(result.domain_stats) == {"INT0", "INT1", "FP0", "FP1"}
