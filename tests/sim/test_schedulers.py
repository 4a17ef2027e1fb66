"""Tests for the baseline warp scheduler."""

import pytest

from repro.isa.optypes import OpClass
from repro.sim.sched.base import rotate
from repro.sim.sched.two_level import TwoLevelScheduler
from tests.sim.views import make_view, ready_ints


class TestRotate:
    def test_starts_at_first_slot_at_or_after_start(self):
        assert rotate([1, 3, 6], 4) == [6, 1, 3]
        assert rotate([1, 3, 6], 3) == [3, 6, 1]

    def test_returns_input_when_no_rotation_needed(self):
        slots = [1, 3, 6]
        assert rotate(slots, 0) is slots
        assert rotate(slots, 7) is slots
        assert rotate((), 5) == ()


class TestTwoLevelScheduler:
    def test_filters_not_ready(self):
        sched = TwoLevelScheduler(n_slots=8)
        view = make_view([(0, OpClass.INT, False), (1, OpClass.FP, True)])
        assert list(sched.order(0, view)) == [1]

    def test_rotates_after_last_issuer(self):
        sched = TwoLevelScheduler(n_slots=8)
        view = ready_ints((0, 3, 6))
        first = sched.order(0, view)
        assert list(first) == [0, 3, 6]
        sched.on_issue(0, first[0])     # last slot = 0
        assert list(sched.order(1, view)) == [3, 6, 0]

    def test_type_blind(self):
        # The baseline's defining flaw: types intersperse freely.
        sched = TwoLevelScheduler(n_slots=4)
        view = make_view([(0, OpClass.INT, True), (1, OpClass.FP, True),
                          (2, OpClass.INT, True), (3, OpClass.FP, True)])
        assert list(sched.order(0, view)) == [0, 1, 2, 3]

    def test_reset_restores_pointer(self):
        sched = TwoLevelScheduler(n_slots=4)
        sched.on_issue(0, 2)
        sched.reset()
        assert list(sched.order(0, ready_ints(range(4)))) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(n_slots=0)

