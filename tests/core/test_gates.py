"""Tests for the GATES scheduler's priority logic."""

import pytest

from repro.core.gates import GatesScheduler
from repro.isa.optypes import OpClass
from tests.sim.views import make_view

INT, FP, SFU, LDST = OpClass.INT, OpClass.FP, OpClass.SFU, OpClass.LDST

#: Six ready warps, one per slot: (slot, head type, ready).
MIXED = [(0, INT, True), (1, FP, True), (2, LDST, True), (3, SFU, True),
         (4, INT, True), (5, FP, True)]
CLASS_OF = {slot: cls for slot, cls, _ in MIXED}


def view(int_actv=0, fp_actv=0, int_blk=False, fp_blk=False, rows=MIXED):
    v = make_view(rows)
    v.actv_counts[INT] = int_actv
    v.actv_counts[FP] = fp_actv
    v.type_in_blackout[INT] = int_blk
    v.type_in_blackout[FP] = fp_blk
    return v


class TestPriorityOrdering:
    def test_int_first_by_default(self):
        sched = GatesScheduler(n_slots=8)
        ordered = sched.order(0, view(int_actv=2, fp_actv=2))
        assert [CLASS_OF[slot] for slot in ordered] == \
            [INT, INT, LDST, SFU, FP, FP]

    def test_ldst_above_sfu_always(self):
        sched = GatesScheduler(n_slots=8)
        ordered = sched.order(0, view(int_actv=2, fp_actv=2))
        ranks = {CLASS_OF[slot]: i for i, slot in enumerate(ordered)}
        assert ranks[OpClass.LDST] < ranks[OpClass.SFU]

    def test_not_ready_filtered(self):
        sched = GatesScheduler(n_slots=8)
        rows = [(0, INT, False), (1, FP, True)]
        assert sched.order(0, view(int_actv=1, fp_actv=1, rows=rows)) == [1]

    def test_round_robin_within_type(self):
        sched = GatesScheduler(n_slots=8)
        rows = [(slot, INT, True) for slot in (1, 3, 6)]
        first = sched.order(0, view(int_actv=3, rows=rows))
        sched.on_issue(0, first[0])  # issued slot 1
        assert sched.order(1, view(int_actv=3, rows=rows)) == [3, 6, 1]


class TestDynamicSwitching:
    def test_switches_when_int_drains(self):
        sched = GatesScheduler(n_slots=8)
        assert sched.highest_priority is OpClass.INT
        sched.order(0, view(int_actv=0, fp_actv=3))
        assert sched.highest_priority is OpClass.FP
        assert sched.priority_switches == 1

    def test_no_switch_when_both_empty(self):
        sched = GatesScheduler(n_slots=8)
        sched.order(0, view(int_actv=0, fp_actv=0, rows=[]))
        assert sched.highest_priority is OpClass.INT

    def test_switches_back_when_fp_drains(self):
        sched = GatesScheduler(n_slots=8)
        sched.order(0, view(int_actv=0, fp_actv=3))
        sched.order(1, view(int_actv=3, fp_actv=0))
        assert sched.highest_priority is OpClass.INT
        assert sched.priority_switches == 2

    def test_fp_priority_reorders_issue(self):
        sched = GatesScheduler(n_slots=8)
        sched.order(0, view(int_actv=0, fp_actv=3))  # switch to FP
        ordered = sched.order(1, view(int_actv=2, fp_actv=2))
        assert CLASS_OF[ordered[0]] is FP
        assert CLASS_OF[ordered[-1]] is INT


class TestBlackoutAwareSwitching:
    def test_disabled_by_default(self):
        sched = GatesScheduler(n_slots=8)
        sched.order(0, view(int_actv=2, fp_actv=2, int_blk=True))
        assert sched.highest_priority is OpClass.INT

    def test_switches_away_from_blacked_type(self):
        sched = GatesScheduler(n_slots=8, blackout_aware=True)
        sched.order(0, view(int_actv=2, fp_actv=2, int_blk=True))
        assert sched.highest_priority is OpClass.FP

    def test_no_switch_if_both_blacked(self):
        sched = GatesScheduler(n_slots=8, blackout_aware=True)
        sched.order(0, view(int_actv=2, fp_actv=2,
                                   int_blk=True, fp_blk=True))
        assert sched.highest_priority is OpClass.INT


class TestValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            GatesScheduler(n_slots=0)


class TestReset:
    def test_reset_restores_initial_state(self):
        sched = GatesScheduler(n_slots=8)
        sched.order(0, view(int_actv=0, fp_actv=3))
        sched.reset()
        assert sched.highest_priority is OpClass.INT
        assert sched.priority_switches == 0
