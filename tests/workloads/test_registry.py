"""Tests for kernel building and workload scaling."""

import pytest

from repro.workloads.registry import build_kernel, scaled_spec
from repro.workloads.specs import BENCHMARK_NAMES, get_profile


class TestBuildKernel:
    def test_full_scale_matches_spec(self):
        kernel = build_kernel("hotspot")
        spec = get_profile("hotspot").spec
        assert kernel.n_warps == spec.n_warps
        assert len(kernel.warps[0]) == spec.instructions_per_warp

    def test_deterministic_per_seed(self):
        a = build_kernel("bfs", seed=5, scale=0.25)
        b = build_kernel("bfs", seed=5, scale=0.25)
        assert a.total_instructions == b.total_instructions
        assert a.warps[0].decode() == b.warps[0].decode()

    def test_different_benchmarks_different_traces(self):
        a = build_kernel("bfs", scale=0.25)
        b = build_kernel("sgemm", scale=0.25)
        assert a.op_class_mix() != b.op_class_mix()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_kernel("notabench")


class TestScaling:
    def test_scale_one_is_identity(self):
        spec = get_profile("hotspot").spec
        assert scaled_spec(spec, 1.0) is spec

    def test_scale_shrinks_proportionally(self):
        spec = get_profile("hotspot").spec
        small = scaled_spec(spec, 0.5)
        assert small.n_warps == round(spec.n_warps * 0.5)
        assert small.instructions_per_warp == \
            round(spec.instructions_per_warp * 0.5)
        assert small.max_resident_warps <= small.n_warps

    def test_scale_preserves_mix(self):
        spec = get_profile("hotspot").spec
        assert scaled_spec(spec, 0.3).mix == spec.mix

    def test_tiny_scale_keeps_minimums(self):
        spec = get_profile("nw").spec
        tiny = scaled_spec(spec, 0.01)
        assert tiny.n_warps >= 2
        assert tiny.instructions_per_warp >= 8
        assert tiny.max_resident_warps >= 2

    def test_invalid_scale(self):
        spec = get_profile("hotspot").spec
        with pytest.raises(ValueError):
            scaled_spec(spec, 0.0)
        with pytest.raises(ValueError):
            scaled_spec(spec, -1.0)


class TestBuildAll:
    def test_builds_full_suite(self):
        for name in BENCHMARK_NAMES:
            assert build_kernel(name, scale=0.1).name == name
