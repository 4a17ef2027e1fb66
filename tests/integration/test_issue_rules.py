"""Issue-rule tests: the dual-issue filler ordering of section 4.1.

"If the highest priority is INT but INT_RDY shows only one ready warp,
then the second issue slot will be filled with either LDST, SFU or FP
instruction, in that order."  These tests drive crafted kernels through
the real SM under GATES and check who actually issues each cycle.
"""


from repro.core.gates import GatesScheduler
from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import fp_op, int_op
from repro.isa.optypes import OpClass
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig
from tests.sim.views import make_view

CONFIG = SMConfig(max_resident_warps=8,
                  memory=MemoryConfig(dram_jitter=0.0))


def order_classes(*classes):
    """GATES' order over one ready warp per slot, as head types."""
    view = make_view((slot, cls, True) for slot, cls in enumerate(classes))
    view.actv_counts[OpClass.INT] = 2
    view.actv_counts[OpClass.FP] = 2
    ordered = GatesScheduler(n_slots=8).order(0, view)
    return [classes[slot] for slot in ordered]


class TestFillerOrdering:
    """Direct scheduler-order checks for the section 4.1 rule."""

    def test_one_int_then_ldst(self):
        ordered = order_classes(OpClass.INT, OpClass.LDST, OpClass.FP)
        assert ordered[:2] == [OpClass.INT, OpClass.LDST]

    def test_one_int_then_sfu_when_no_ldst(self):
        ordered = order_classes(OpClass.INT, OpClass.SFU, OpClass.FP)
        assert ordered[:2] == [OpClass.INT, OpClass.SFU]

    def test_one_int_then_fp_as_last_resort(self):
        ordered = order_classes(OpClass.INT, OpClass.FP)
        assert ordered == [OpClass.INT, OpClass.FP]

    def test_two_ready_ints_fill_both_slots(self):
        ordered = order_classes(OpClass.INT, OpClass.FP, OpClass.INT)
        assert ordered[:2] == [OpClass.INT, OpClass.INT]


class TestDualIssueInTheSM:
    """End-to-end: both issue slots used when two INT warps are ready."""

    def test_parallel_int_issue_across_clusters(self):
        # Two independent INT-only warps in different home clusters can
        # retire 2 instructions per cycle.
        warps = tuple(
            WarpTrace(i, tuple(int_op(dest=j % 8) for j in range(16)))
            for i in range(2))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=2)
        sm = build_sm(kernel, Technique.GATES_NO_PG, sm_config=CONFIG)
        result = sm.run()
        # 32 instructions; near-perfect dual issue after warm-up.
        assert result.cycles <= 16 + 8
        assert result.pipeline_issues["INT0"] == 16
        assert result.pipeline_issues["INT1"] == 16

    def test_same_cluster_warps_serialise_structurally(self):
        # Two warps with the same home cluster (slots 0 and 2) share one
        # INT port; with II=1 that still dual-decodes but issues one
        # INT per cycle into the shared pipe.
        warps = (
            WarpTrace(0, tuple(int_op(dest=j % 8) for j in range(8))),
            WarpTrace(1, ()),  # placeholder to occupy slot 1
            WarpTrace(2, tuple(int_op(dest=j % 8) for j in range(8))),
        )
        # Empty traces are invalid; give slot 1 a single FP instruction.
        warps = (warps[0],
                 WarpTrace(1, (fp_op(dest=0),)),
                 warps[2])
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=3)
        sm = build_sm(kernel, Technique.GATES_NO_PG, sm_config=CONFIG)
        result = sm.run()
        assert result.pipeline_issues["INT0"] == 16
        assert result.pipeline_issues["INT1"] == 0
        assert result.stats.stalls.structural > 0
