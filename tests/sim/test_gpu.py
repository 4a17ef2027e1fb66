"""Tests for the multi-SM GPU wrapper."""

import pytest

from repro.core.device import MemorySideConfig
from repro.core.digest import device_result_digest
from repro.core.techniques import Technique
from repro.engine.pool import ParallelEngine
from repro.isa.instructions import int_op
from repro.isa.optypes import ExecUnitKind
from repro.isa.trace import KernelTrace, WarpTrace
from repro.isa.tracegen import generate_kernel
from repro.sim.gpu import GPU, split_kernel

from tests.conftest import SMALL_SM


def make_kernel(n_warps: int) -> KernelTrace:
    warps = tuple(WarpTrace(i, (int_op(0), int_op(1, srcs=(0,))))
                  for i in range(n_warps))
    return KernelTrace(name="k", warps=warps, max_resident_warps=16)


class TestSplitKernel:
    def test_round_robin_distribution(self):
        parts = split_kernel(make_kernel(10), n_sms=3)
        assert [p.n_warps for p in parts] == [4, 3, 3]

    def test_warp_ids_renumbered(self):
        parts = split_kernel(make_kernel(6), n_sms=2)
        for part in parts:
            assert [w.warp_id for w in part.warps] == [0, 1, 2]

    def test_drops_empty_sms(self):
        parts = split_kernel(make_kernel(2), n_sms=8)
        assert len(parts) == 2

    def test_preserves_instructions(self):
        kernel = make_kernel(5)
        parts = split_kernel(kernel, n_sms=2)
        total = sum(p.total_instructions for p in parts)
        assert total == kernel.total_instructions

    def test_validation(self):
        with pytest.raises(ValueError):
            split_kernel(make_kernel(2), n_sms=0)


def device(n_sms: int, technique=Technique.BASELINE, **kwargs) -> GPU:
    return GPU(n_sms, technique, sm_config=SMALL_SM, **kwargs)


class TestGPU:
    def test_aggregates_instructions(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        result = device(3).run(kernel)
        assert result.total_instructions == kernel.total_instructions

    def test_device_cycles_is_slowest_sm(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        result = device(2).run(kernel)
        assert result.cycles == max(r.cycles for r in result.sm_results)

    def test_unit_activity_sums_over_sms(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        result = device(2).run(kernel)
        per_sm = [r.unit_activity(ExecUnitKind.INT)
                  for r in result.sm_results]
        total = result.unit_activity(ExecUnitKind.INT)
        assert total.issues == sum(a.issues for a in per_sm)
        assert total.cycles == sum(a.cycles for a in per_sm)

    def test_idle_histogram_merges(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        result = device(2).run(kernel)
        merged = result.idle_histogram(ExecUnitKind.INT)
        per_sm_total = sum(sum(r.idle_histogram(ExecUnitKind.INT).values())
                           for r in result.sm_results)
        assert sum(merged.values()) == per_sm_total

    def test_technique_label_propagates(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        gpu = device(2, Technique.WARPED_GATES)
        assert gpu.run(kernel).technique == "warped_gates"

    def test_validation(self):
        with pytest.raises(ValueError):
            device(0)

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_engine_fan_out_matches_in_process(self, balanced_spec,
                                               fast_forward):
        # Every part is one SMPartJob either way; the engine only
        # changes where it runs, never what it returns.
        kernel = generate_kernel(balanced_spec, seed=1)
        gpu = device(3, Technique.WARPED_GATES, dram_latency=400,
                     memory_side=MemorySideConfig(),
                     fast_forward=fast_forward)
        digests = {device_result_digest(gpu.run(kernel))}
        for jobs in (1, 2):
            with ParallelEngine(jobs=jobs, cache_dir=None) as engine:
                digests.add(device_result_digest(
                    gpu.run(kernel, engine=engine)))
        assert len(digests) == 1


class TestDeviceScale:
    """Full-chip construction: presets, memory side, energy rollup."""

    def test_from_preset_builds_the_paper_chip(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        gpu = GPU.from_preset("gtx480", "baseline")
        assert gpu.n_sms == 15
        assert gpu.memory_side is not None
        result = gpu.run(kernel)
        assert result.total_instructions == kernel.total_instructions

    def test_from_preset_unknown_name_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'gtx480'"):
            GPU.from_preset("gtx48", "baseline")

    def test_contention_inflates_device_runtime(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        free = device(4, dram_latency=400).run(kernel)
        contended = device(4, dram_latency=400,
                           memory_side=MemorySideConfig(
                               n_partitions=1, queue_alpha=1.0)).run(kernel)
        assert contended.cycles > free.cycles

    def test_single_sm_device_ignores_memory_side(self, balanced_spec):
        kernel = generate_kernel(balanced_spec, seed=1)
        base = device(1, dram_latency=400).run(kernel)
        with_side = device(1, dram_latency=400,
                           memory_side=MemorySideConfig(
                               n_partitions=1, queue_alpha=1.0)).run(kernel)
        assert with_side.cycles == base.cycles

    def test_energy_breakdown_aggregates_all_sms(self, balanced_spec):
        from repro.sim.gpu import GPUResult

        kernel = generate_kernel(balanced_spec, seed=1)
        result = device(3, Technique.WARPED_GATES,
                        dram_latency=400).run(kernel)
        breakdown = result.energy_breakdown()
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP):
            chip = breakdown[kind]
            # Chip baseline static energy is the sum over every SM's
            # domain-cycles; nothing of any SM may be dropped.
            activity = result.unit_activity(kind)
            per_sm_cycles = sum(
                r.unit_activity(kind).cycles for r in result.sm_results)
            assert activity.cycles == per_sm_cycles
            assert chip.baseline_static > 0
            # Single-SM breakdowns must sum to the chip (the model is
            # linear in activity).
            parts = [GPUResult(kernel_name="k", technique="t",
                               sm_results=(r,)).energy_breakdown()[kind]
                     for r in result.sm_results]
            assert chip.dynamic == pytest.approx(
                sum(p.dynamic for p in parts))
            assert chip.static == pytest.approx(
                sum(p.static for p in parts))
            assert chip.overhead == pytest.approx(
                sum(p.overhead for p in parts))
