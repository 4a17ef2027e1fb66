"""Unit/integration tests for the SM cycle model."""

import pytest

from repro.isa.instructions import fp_op, int_op, load_op, sfu_op, store_op
from repro.isa.optypes import ExecUnitKind, OpClass
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.sched.two_level import TwoLevelScheduler
from repro.sim.sm import StreamingMultiprocessor

from tests.conftest import SMALL_SM
from tests.sim.test_stats import histogram_mass


def make_sm(kernel: KernelTrace, config: SMConfig = SMALL_SM,
            **kwargs) -> StreamingMultiprocessor:
    scheduler = TwoLevelScheduler(n_slots=min(config.max_resident_warps,
                                              kernel.max_resident_warps))
    return StreamingMultiprocessor(kernel, config, scheduler, **kwargs)


def single_warp_kernel(*insts) -> KernelTrace:
    return KernelTrace(name="k", warps=(WarpTrace(0, tuple(insts)),),
                       max_resident_warps=4)


class TestCompletion:
    def test_all_instructions_retire(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        assert result.stats.instructions_retired == \
            tiny_kernel.total_instructions
        assert result.stats.instructions_issued == \
            result.stats.instructions_retired

    def test_single_dependent_chain_timing(self):
        # Three chained INT adds: issue at 0, 4, 8; last retires at 12.
        kernel = single_warp_kernel(
            int_op(0), int_op(1, srcs=(0,)), int_op(2, srcs=(1,)))
        result = make_sm(kernel).run()
        assert result.cycles == 13  # drain completes during cycle 12

    def test_loads_resolve_and_unblock(self):
        kernel = single_warp_kernel(
            load_op(0, line_addr=1), int_op(1, srcs=(0,)))
        config = SMConfig(max_resident_warps=4,
                          memory=MemoryConfig(dram_latency=50,
                                              dram_jitter=0.0))
        result = make_sm(kernel, config).run()
        # load issues ~cycle 0, exits LDST at 2, misses (50) -> dependent
        # issues at ~52, retires at ~56.
        assert 55 <= result.cycles <= 62
        assert result.memory.misses == 1

    def test_stores_do_not_block_warp(self):
        kernel = single_warp_kernel(
            store_op(line_addr=3, srcs=(1,)), int_op(0))
        result = make_sm(kernel).run()
        assert result.cycles < 15
        assert result.memory.stores == 1

    def test_sfu_instructions_execute(self):
        kernel = single_warp_kernel(sfu_op(0), sfu_op(1))
        result = make_sm(kernel).run()
        assert result.pipeline_issues["SFU"] == 2

    def test_more_warps_than_slots(self):
        warps = tuple(WarpTrace(i, (int_op(0), fp_op(1)))
                      for i in range(12))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=4)
        result = make_sm(kernel).run()
        assert result.stats.instructions_retired == 24

    def test_sm_single_use(self, tiny_kernel):
        sm = make_sm(tiny_kernel)
        sm.run()
        with pytest.raises(RuntimeError, match="exactly one kernel"):
            sm.run()

    def test_deadlock_guard_raises(self, tiny_kernel):
        config = SMConfig(max_resident_warps=4, max_cycles=3)
        with pytest.raises(RuntimeError, match="deadlock"):
            make_sm(tiny_kernel, config).run()


class TestStructure:
    def test_pipeline_inventory_matches_config(self, tiny_kernel):
        config = SMConfig(n_sp_clusters=3, max_resident_warps=4)
        sm = make_sm(tiny_kernel, config)
        names = {p.name for p in sm.pipelines}
        assert names == {"INT0", "INT1", "INT2", "FP0", "FP1", "FP2",
                         "SFU", "LDST"}

    def test_home_cluster_binding(self):
        # Even warp slots use cluster 0, odd slots cluster 1.
        warps = tuple(WarpTrace(i, (int_op(0),)) for i in range(4))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=4)
        result = make_sm(kernel).run()
        assert result.pipeline_issues["INT0"] == 2
        assert result.pipeline_issues["INT1"] == 2

    def test_attach_domain_validates_name(self, tiny_kernel):
        from repro.power.gating import ConventionalPolicy, GatingDomain
        from repro.power.params import GatingParams
        sm = make_sm(tiny_kernel)
        domain = GatingDomain("nope", GatingParams(), ConventionalPolicy())
        with pytest.raises(KeyError):
            sm.attach_domain("NOPE", domain)

    def test_result_pipeline_names(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        assert result.pipeline_names(ExecUnitKind.INT) == ("INT0", "INT1")
        assert result.pipeline_names(ExecUnitKind.SFU) == ("SFU",)


class TestAccounting:
    def test_issued_by_class_matches_kernel(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        counts = tiny_kernel.op_class_counts()
        for cls in OpClass:
            assert result.stats.issued_by_class[cls] == counts[cls]

    def test_busy_plus_idle_equals_cycles(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        for tracker in result.stats.idle_trackers.values():
            assert tracker.busy_cycles + tracker.idle_cycles == \
                result.cycles

    def test_idle_histogram_mass_invariant(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        for tracker in result.stats.idle_trackers.values():
            assert histogram_mass(tracker) == tracker.idle_cycles

    def test_unit_activity_without_gating(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        activity = result.unit_activity(ExecUnitKind.INT)
        assert activity.cycles == 2 * result.cycles
        assert activity.gated_cycles == 0
        assert activity.gating_events == 0
        assert activity.issues == result.pipeline_issues["INT0"] + \
            result.pipeline_issues["INT1"]

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_fresh_mshr_rejection_counts_twice(self, fast_forward):
        """Pins today's retry timing: ``_writeback`` retries an access
        the MSHR file just rejected once more in the same cycle, so
        ``mshr_stalls`` counts that first rejection twice, then one
        rejection per cycle until a fill frees the entry.

        Warp 0's miss (issued at 0, at the memory at 2) holds the one
        MSHR until 52; warp 1's load (issued at 1) reaches the memory
        at 3, so it is rejected twice at 3 and once at each of 4..51.
        Changing this moves the golden digests and the benchmark
        references."""
        warps = (WarpTrace(0, (load_op(0, line_addr=1),)),
                 WarpTrace(1, (load_op(0, line_addr=2),)))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=4)
        config = SMConfig(max_resident_warps=4,
                          memory=MemoryConfig(mshr_entries=1,
                                              dram_latency=50,
                                              dram_jitter=0.0))
        sm = make_sm(kernel, config, fast_forward=fast_forward)
        access = sm.memory.access
        rejected = []

        def spy(cycle, slot, inst):
            ready = access(cycle, slot, inst)
            if ready is None:
                rejected.append(cycle)
            return ready

        sm.memory.access = spy
        result = sm.run()
        if not fast_forward:  # a skipped span replays the count in bulk
            assert rejected == [3] + list(range(3, 52))
        assert result.memory.mshr_stalls == 50
        assert result.memory.misses == 2


class TestDeterminism:
    def test_same_kernel_same_result(self, balanced_spec):
        from repro.isa.tracegen import generate_kernel
        kernel = generate_kernel(balanced_spec, seed=3)
        r1 = make_sm(kernel).run()
        r2 = make_sm(kernel).run()
        assert r1.cycles == r2.cycles
        assert r1.stats.instructions_retired == \
            r2.stats.instructions_retired
        assert r1.pipeline_issues == r2.pipeline_issues


class TestLaunch:
    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_resident_warps_never_exceed_kernel_cap(self, fast_forward):
        warps = tuple(WarpTrace(i, (int_op(0), int_op(1, srcs=(0,))))
                      for i in range(10))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=2)
        sm = make_sm(kernel, SMConfig(max_resident_warps=48),
                     fast_forward=fast_forward)
        resident = []

        class Probe:
            def on_cycle(self, cycle):
                resident.append(len(sm._resident))

            def idle_next_event(self, cycle):
                # Bounds no span: residency changes only on stepped
                # cycles, and those are the ones this hook sees.
                return float("inf")

        sm.add_hook(Probe())
        result = sm.run()
        assert len(sm.warps) == 2
        assert max(resident) == 2
        assert len(result.warp_rows) == 10
        if fast_forward:
            assert sm._forwarder.skipped_cycles > 0

    def test_slots_refill_in_warp_order(self):
        warps = tuple(WarpTrace(i, (int_op(0),)) for i in range(3))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=1)
        result = make_sm(kernel).run()
        assert [row[0] for row in result.warp_rows] == [0, 1, 2]
        # One slot: each warp launches once its predecessor finished.
        for before, after in zip(result.warp_rows, result.warp_rows[1:]):
            assert after[1] >= before[2]

    def test_launch_stops_when_kernel_exhausted(self):
        # Fewer warps than slots: each warp launches exactly once and
        # the spare slots are never occupied.
        warps = tuple(WarpTrace(i, (int_op(0),)) for i in range(2))
        kernel = KernelTrace(name="k", warps=warps, max_resident_warps=4)
        sm = make_sm(kernel)
        result = sm.run()
        assert sm._unlaunched == 0
        assert sorted(row[0] for row in result.warp_rows) == [0, 1]
        assert all(w.trace is None for w in sm.warps)


class TestSMWideTracker:
    def test_sm_wide_tracker_collected(self, tiny_kernel):
        result = make_sm(tiny_kernel).run()
        tracker = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER]
        assert tracker.busy_cycles + tracker.idle_cycles == result.cycles

    def test_sm_wide_idleness_below_per_unit_idleness(self):
        # SM-wide idle requires EVERY pipeline idle, so its idle count
        # can never exceed any single pipeline's.
        from repro.core.techniques import Technique, build_sm
        from repro.workloads.registry import build_kernel
        kernel = build_kernel("hotspot", scale=0.25)
        result = build_sm(kernel, Technique.BASELINE).run()
        sm_idle = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER].idle_cycles
        for name in ("INT0", "INT1", "FP0", "FP1", "SFU", "LDST"):
            assert sm_idle <= result.stats.idle_trackers[name].idle_cycles
