"""Tests for warp/kernel trace containers."""

import pytest

from repro.isa.instructions import fp_op, int_op
from repro.isa.optypes import OpClass
from repro.isa.trace import KernelTrace, WarpTrace


def make_warp(warp_id: int, n_int: int = 2, n_fp: int = 1) -> WarpTrace:
    insts = tuple(int_op(dest=i) for i in range(n_int)) + \
        tuple(fp_op(dest=i) for i in range(n_fp))
    return WarpTrace(warp_id=warp_id, instructions=insts)


class TestWarpTrace:
    def test_len_and_iteration(self):
        warp = make_warp(0, n_int=3, n_fp=2)
        assert len(warp) == 5
        assert [i.op_class for i in warp].count(OpClass.INT) == 3

    def test_indexing(self):
        warp = make_warp(0)
        assert warp[0].op_class is OpClass.INT
        assert warp[2].op_class is OpClass.FP

    def test_op_class_counts(self):
        counts = make_warp(0, n_int=2, n_fp=1).op_class_counts()
        assert counts[OpClass.INT] == 2
        assert counts[OpClass.FP] == 1
        assert counts[OpClass.LDST] == 0


class TestKernelTrace:
    def test_requires_warps(self):
        with pytest.raises(ValueError, match="at least one warp"):
            KernelTrace(name="empty", warps=())

    def test_unique_warp_ids(self):
        with pytest.raises(ValueError, match="unique"):
            KernelTrace(name="dup", warps=(make_warp(0), make_warp(0)))

    def test_resident_cap_positive(self):
        with pytest.raises(ValueError, match="max_resident_warps"):
            KernelTrace(name="bad", warps=(make_warp(0),),
                        max_resident_warps=0)

    def test_totals(self):
        kernel = KernelTrace(name="k",
                             warps=(make_warp(0), make_warp(1, n_int=1)))
        assert kernel.n_warps == 2
        assert kernel.total_instructions == 5

    def test_mix_sums_to_one(self):
        kernel = KernelTrace(name="k", warps=(make_warp(0), make_warp(1)))
        assert sum(kernel.op_class_mix().values()) == pytest.approx(1.0)

    def test_mix_values(self):
        kernel = KernelTrace(name="k", warps=(make_warp(0, 2, 2),))
        mix = kernel.op_class_mix()
        assert mix[OpClass.INT] == pytest.approx(0.5)
        assert mix[OpClass.FP] == pytest.approx(0.5)

