"""Tests for the synthetic trace generator."""

import pytest

from repro.isa.optypes import OpClass
from repro.isa.tracegen import REGS_PER_WARP, TraceSpec, generate_kernel


def spec(**overrides) -> TraceSpec:
    base = dict(
        name="t",
        mix={OpClass.INT: 0.5, OpClass.FP: 0.3,
             OpClass.SFU: 0.05, OpClass.LDST: 0.15},
        n_warps=8, instructions_per_warp=200)
    base.update(overrides)
    return TraceSpec(**base)


class TestSpecValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            spec(mix={OpClass.INT: 0.5, OpClass.FP: 0.2,
                      OpClass.SFU: 0.0, OpClass.LDST: 0.0})

    def test_negative_mix_rejected(self):
        with pytest.raises(ValueError):
            spec(mix={OpClass.INT: 1.2, OpClass.FP: -0.2,
                      OpClass.SFU: 0.0, OpClass.LDST: 0.0})

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            spec(n_warps=0)

    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            spec(dep_prob=1.5)
        with pytest.raises(ValueError):
            spec(locality=-0.1)
        with pytest.raises(ValueError):
            spec(load_fraction=2.0)

    def test_footprint_positive(self):
        with pytest.raises(ValueError, match="footprint"):
            spec(footprint_lines=0)


class TestGeneration:
    def test_shape(self):
        kernel = generate_kernel(spec())
        assert kernel.n_warps == 8
        assert all(len(w) == 200 for w in kernel.warps)

    def test_determinism(self):
        a = generate_kernel(spec(), seed=7)
        b = generate_kernel(spec(), seed=7)
        for wa, wb in zip(a.warps, b.warps):
            assert wa.decode() == wb.decode()

    def test_seed_changes_trace(self):
        a = generate_kernel(spec(), seed=1)
        b = generate_kernel(spec(), seed=2)
        assert any(wa.decode() != wb.decode()
                   for wa, wb in zip(a.warps, b.warps))

    def test_mix_converges(self):
        kernel = generate_kernel(spec(n_warps=16,
                                      instructions_per_warp=500))
        mix = kernel.op_class_mix()
        assert mix[OpClass.INT] == pytest.approx(0.5, abs=0.05)
        assert mix[OpClass.FP] == pytest.approx(0.3, abs=0.05)
        assert mix[OpClass.LDST] == pytest.approx(0.15, abs=0.04)

    def test_zero_fp_mix_generates_no_fp(self):
        kernel = generate_kernel(spec(
            mix={OpClass.INT: 0.7, OpClass.FP: 0.0,
                 OpClass.SFU: 0.05, OpClass.LDST: 0.25}))
        assert kernel.op_class_counts()[OpClass.FP] == 0

    def test_registers_in_range(self):
        kernel = generate_kernel(spec())
        for warp in kernel.warps:
            for inst in warp.decode():
                for reg in inst.srcs:
                    assert 0 <= reg < REGS_PER_WARP
                if inst.dest is not None:
                    assert 0 <= inst.dest < REGS_PER_WARP

    def test_memory_addresses_within_footprint(self):
        s = spec(footprint_lines=64)
        kernel = generate_kernel(s)
        for warp in kernel.warps:
            for inst in warp.decode():
                if inst.is_mem:
                    assert 0 <= inst.line_addr < 64

    def test_load_store_split(self):
        s = spec(load_fraction=1.0,
                 mix={OpClass.INT: 0.2, OpClass.FP: 0.0,
                      OpClass.SFU: 0.0, OpClass.LDST: 0.8})
        kernel = generate_kernel(s)
        mem = [i for w in kernel.warps for i in w.decode() if i.is_mem]
        assert mem and all(i.is_load for i in mem)

    def test_latency_by_class_respected(self):
        s = spec(latency_by_class={OpClass.INT: 6, OpClass.FP: 8,
                                   OpClass.SFU: 20, OpClass.LDST: 3})
        kernel = generate_kernel(s)
        for warp in kernel.warps:
            for inst in warp.decode():
                if inst.op_class is OpClass.INT:
                    assert inst.latency == 6
                elif inst.op_class is OpClass.FP:
                    assert inst.latency == 8

    def test_dependencies_reference_earlier_writes(self):
        # With dep_prob=1 every source either hits a prior destination
        # in the same warp or (before any dest exists) a random initial
        # register.
        s = spec(dep_prob=1.0, instructions_per_warp=50)
        kernel = generate_kernel(s)
        warp = kernel.warps[0]
        written = set()
        dependent_sources = 0
        for inst in warp.decode():
            dependent_sources += sum(1 for r in inst.srcs if r in written)
            written.update(inst.registers_written())
        assert dependent_sources > 10  # plenty of real RAW edges
