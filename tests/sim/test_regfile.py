"""Tests for the banked register-file model."""

import pytest

from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.regfile import RegisterFileModel


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterFileModel(banks=0)
        with pytest.raises(ValueError):
            RegisterFileModel(banks=4, ports_per_bank=0)

    def test_bank_interleave_is_warp_skewed(self):
        rf = RegisterFileModel(banks=8)
        assert rf.bank_of(warp_slot=0, reg=3) == 3
        assert rf.bank_of(warp_slot=1, reg=3) == 4
        assert rf.bank_of(warp_slot=0, reg=11) == 3

    def test_no_conflict_for_distinct_banks(self):
        rf = RegisterFileModel(banks=8)
        rf.begin_cycle()
        assert rf.charge(0, int_op(dest=7, srcs=(0, 1))) == 0
        assert rf.charge(0, int_op(dest=7, srcs=(2, 3))) == 0
        assert rf.total_conflict_cycles == 0

    def test_same_bank_reads_serialise(self):
        rf = RegisterFileModel(banks=8)
        rf.begin_cycle()
        # Registers 0 and 8 share bank 0 for warp 0.
        assert rf.charge(0, int_op(dest=7, srcs=(0, 8))) == 1
        assert rf.total_conflict_cycles == 1

    def test_cross_instruction_conflicts(self):
        rf = RegisterFileModel(banks=8)
        rf.begin_cycle()
        rf.charge(0, int_op(dest=7, srcs=(0,)))
        # Second instruction from warp 8 also hits bank 0 (reg 0 + 8 = 8
        # ... bank (0+8)%8 == 0).
        assert rf.charge(8, int_op(dest=7, srcs=(0,))) == 1

    def test_begin_cycle_resets(self):
        rf = RegisterFileModel(banks=8)
        rf.begin_cycle()
        rf.charge(0, int_op(dest=7, srcs=(0,)))
        rf.begin_cycle()
        assert rf.charge(0, int_op(dest=7, srcs=(0,))) == 0

    def test_extra_ports_absorb_conflicts(self):
        rf = RegisterFileModel(banks=8, ports_per_bank=2)
        rf.begin_cycle()
        assert rf.charge(0, int_op(dest=7, srcs=(0, 8))) == 0
        assert rf.charge(0, int_op(dest=7, srcs=(16,))) == 1

    def test_conflict_rate(self):
        rf = RegisterFileModel(banks=8)
        rf.begin_cycle()
        rf.charge(0, int_op(dest=7, srcs=(0, 8)))  # 2 reads, 1 conflict
        assert rf.conflict_rate == pytest.approx(0.5)


class TestInTheSM:
    def _kernel(self):
        # One warp issuing instructions whose sources collide on bank 0.
        insts = tuple(int_op(dest=16 + i, srcs=(0, 8)) for i in range(6))
        return KernelTrace(name="rf", warps=(WarpTrace(0, insts),),
                           max_resident_warps=2)

    def test_conflicts_slow_execution(self):
        base_cfg = SMConfig(max_resident_warps=2,
                            memory=MemoryConfig(dram_jitter=0.0))
        rf_cfg = SMConfig(max_resident_warps=2, rf_banks=8,
                          memory=MemoryConfig(dram_jitter=0.0))
        fast = build_sm(self._kernel(),
                        Technique.BASELINE,
                        sm_config=base_cfg).run()
        slow_sm = build_sm(self._kernel(),
                           Technique.BASELINE,
                           sm_config=rf_cfg)
        slow = slow_sm.run()
        assert slow.cycles > fast.cycles
        assert slow_sm.regfile is not None
        assert slow_sm.regfile.total_conflict_cycles >= 6

    def test_disabled_by_default(self):
        sm = build_sm(self._kernel(), Technique.BASELINE)
        assert sm.regfile is None

    def test_invariants_hold_with_rf_model(self):
        rf_cfg = SMConfig(max_resident_warps=8, rf_banks=16)
        from repro.workloads.registry import build_kernel
        kernel = build_kernel("hotspot", scale=0.15)
        result = build_sm(kernel,
                          Technique.WARPED_GATES,
                          sm_config=rf_cfg).run()
        assert result.stats.instructions_retired == \
            kernel.total_instructions
        for tracker in result.stats.idle_trackers.values():
            assert tracker.busy_cycles + tracker.idle_cycles == \
                result.cycles
