"""Tests for multi-kernel launch sequences (barriers + idle gaps)."""

import pytest

from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.frontend import MultiKernelLauncher
from repro.sim.sm import StreamingMultiprocessor

CONFIG = SMConfig(max_resident_warps=4,
                  memory=MemoryConfig(dram_jitter=0.0))


def make_kernel(name: str, n_warps: int = 2,
                n_insts: int = 4) -> KernelTrace:
    warps = tuple(
        WarpTrace(i, tuple(int_op(dest=j % 8, srcs=((j - 1) % 8,))
                           for j in range(n_insts)))
        for i in range(n_warps))
    return KernelTrace(name=name, warps=warps, max_resident_warps=8)


class TestLauncherUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiKernelLauncher([], max_resident=4)
        with pytest.raises(ValueError, match="gap_cycles"):
            MultiKernelLauncher([make_kernel("a")], max_resident=4,
                                gap_cycles=-1)

    def test_remaining_spans_all_kernels(self):
        launcher = MultiKernelLauncher(
            [make_kernel("a", 2), make_kernel("b", 3)], max_resident=4)
        assert launcher.remaining == 5
        launcher.pop_next(0, 0)
        assert launcher.remaining == 4

    def test_barrier_blocks_next_kernel(self):
        launcher = MultiKernelLauncher(
            [make_kernel("a", 1), make_kernel("b", 1)], max_resident=4)
        assert launcher.pop_next(0, 0) is not None  # kernel a's warp
        # Kernel a fully launched but still resident: barrier holds.
        assert launcher.pop_next(1, 1) is None
        assert launcher.current_kernel_index == 0
        # Once drained (resident=0), kernel b launches.
        assert launcher.pop_next(2, 0) is not None
        assert launcher.current_kernel_index == 1

    def test_gap_delays_next_kernel(self):
        launcher = MultiKernelLauncher(
            [make_kernel("a", 1), make_kernel("b", 1)],
            max_resident=4, gap_cycles=10)
        launcher.pop_next(0, 0)
        assert launcher.pop_next(5, 0) is None    # gap starts at 5
        assert launcher.pop_next(14, 0) is None   # 5 + 10 = 15
        assert launcher.pop_next(15, 0) is not None

    def test_exhaustion(self):
        launcher = MultiKernelLauncher([make_kernel("a", 1)],
                                       max_resident=4)
        launcher.pop_next(0, 0)
        assert launcher.pop_next(1, 0) is None
        assert launcher.remaining == 0


class TestEndToEnd:
    def test_all_kernels_complete(self):
        kernels = [make_kernel("a", 3), make_kernel("b", 2)]
        sm = build_sm(kernels, Technique.BASELINE, sm_config=CONFIG)
        result = sm.run()
        total = sum(k.total_instructions for k in kernels)
        assert result.stats.instructions_retired == total
        assert result.kernel_name == "a+b"

    def test_gap_adds_idle_cycles(self):
        kernels = [make_kernel("a", 2), make_kernel("b", 2)]
        fast = build_sm([k for k in kernels],
                        Technique.BASELINE,
                        sm_config=CONFIG).run()
        slow = build_sm([k for k in kernels],
                        Technique.BASELINE,
                        sm_config=CONFIG, kernel_gap_cycles=100).run()
        assert slow.cycles >= fast.cycles + 100

    def test_gap_creates_sm_wide_idle_window(self):
        kernels = [make_kernel("a", 2), make_kernel("b", 2)]
        sm = build_sm(kernels, Technique.BASELINE,
                      sm_config=CONFIG, kernel_gap_cycles=60)
        result = sm.run()
        tracker = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER]
        # The inter-kernel gap shows up as one long whole-SM idle run.
        assert max(tracker.histogram) >= 60

    def test_gating_sleeps_through_the_gap(self):
        kernels = [make_kernel("a", 2), make_kernel("b", 2)]
        sm = build_sm(kernels,
                      Technique.NAIVE_BLACKOUT,
                      sm_config=CONFIG, kernel_gap_cycles=200)
        result = sm.run()
        for stats in result.domain_stats.values():
            assert stats.gated_cycles >= 150

    def test_single_kernel_path_unchanged(self):
        kernel = make_kernel("solo", 2)
        a = build_sm(kernel, Technique.BASELINE, sm_config=CONFIG).run()
        b = build_sm([kernel], Technique.BASELINE, sm_config=CONFIG).run()
        assert a.cycles == b.cycles
        assert a.kernel_name == b.kernel_name == "solo"

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_sm([], Technique.BASELINE, sm_config=CONFIG)
