"""Tests for the SIMT divergence model."""

import numpy as np
import pytest

from repro.isa.divergence import WARP_LANES, DivergenceModel
from repro.isa.optypes import OpClass
from repro.isa.tracegen import TraceSpec, generate_kernel


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestModelValidation:
    def test_branch_prob_range(self):
        with pytest.raises(ValueError):
            DivergenceModel(branch_prob=1.5)
        with pytest.raises(ValueError):
            DivergenceModel(branch_prob=-0.1)

    def test_region_length_and_depth(self):
        with pytest.raises(ValueError):
            DivergenceModel(0.1, mean_region_length=0.5)
        with pytest.raises(ValueError):
            DivergenceModel(0.1, max_depth=0)


class TestMaskSequences:
    def test_zero_branch_prob_full_mask_forever(self):
        model = DivergenceModel(branch_prob=0.0)
        generator = rng()
        for _ in range(200):
            assert model.step(generator) == WARP_LANES
        assert model.depth == 0

    def test_masks_always_valid(self):
        model = DivergenceModel(branch_prob=0.3)
        generator = rng(1)
        for _ in range(2000):
            lanes = model.step(generator)
            assert 1 <= lanes <= WARP_LANES

    def test_divergence_actually_happens(self):
        model = DivergenceModel(branch_prob=0.3)
        generator = rng(2)
        masks = [model.step(generator) for _ in range(500)]
        assert any(m < WARP_LANES for m in masks)

    def test_depth_bounded(self):
        model = DivergenceModel(branch_prob=1.0, max_depth=3)
        generator = rng(3)
        for _ in range(2000):
            model.step(generator)
            assert model.depth <= 3

    def test_reconvergence_restores_full_mask(self):
        # With a finite region length, the stack must eventually drain
        # once branching stops.
        model = DivergenceModel(branch_prob=1.0, mean_region_length=3.0,
                                max_depth=2)
        generator = rng(4)
        for _ in range(50):
            model.step(generator)
        model.branch_prob = 0.0  # stop creating regions
        for _ in range(10_000):
            if model.step(generator) == WARP_LANES and model.depth == 0:
                break
        assert model.depth == 0
        assert model.current_lanes() == WARP_LANES

    def test_split_preserves_lanes(self):
        # On a path switch, current+other lanes always partition the
        # parent mask: with one region, they sum to 32.
        model = DivergenceModel(branch_prob=1.0, max_depth=1)
        generator = rng(5)
        for _ in range(500):
            model.step(generator)
            if model.depth == 1:
                region = model._stack[0]
                assert region.lanes_current + region.lanes_other == \
                    WARP_LANES

    def test_reset(self):
        model = DivergenceModel(branch_prob=1.0)
        generator = rng(6)
        for _ in range(20):
            model.step(generator)
        model.reset()
        assert model.depth == 0
        assert model.current_lanes() == WARP_LANES


class TestTraceIntegration:
    def spec(self, branch_prob: float) -> TraceSpec:
        return TraceSpec(
            name="div",
            mix={OpClass.INT: 0.6, OpClass.FP: 0.2,
                 OpClass.SFU: 0.0, OpClass.LDST: 0.2},
            n_warps=4, instructions_per_warp=200,
            branch_prob=branch_prob)

    def test_no_divergence_by_default(self):
        kernel = generate_kernel(self.spec(0.0))
        for warp in kernel.warps:
            assert all(i.active_lanes == WARP_LANES for i in warp.decode())

    def test_divergent_trace_has_partial_masks(self):
        kernel = generate_kernel(self.spec(0.2))
        lanes = [i.active_lanes for w in kernel.warps for i in w.decode()]
        assert min(lanes) < WARP_LANES
        assert all(1 <= l <= WARP_LANES for l in lanes)

    def test_divergence_is_deterministic(self):
        a = generate_kernel(self.spec(0.2), seed=9)
        b = generate_kernel(self.spec(0.2), seed=9)
        for wa, wb in zip(a.warps, b.warps):
            assert [i.active_lanes for i in wa.decode()] == \
                [i.active_lanes for i in wb.decode()]

    def test_lane_fraction_property(self):
        kernel = generate_kernel(self.spec(0.2))
        for warp in kernel.warps:
            for inst in warp.decode():
                assert inst.lane_fraction == inst.active_lanes / 32.0
