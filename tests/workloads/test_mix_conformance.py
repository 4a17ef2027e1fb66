"""Suite-wide calibration conformance: generated traces match specs.

The Figure 5a reproduction is only as good as the generator's fidelity
to the per-benchmark mixes; this parametrised check covers all 18
benchmarks (trace generation only — no simulation — so it stays fast).
"""

import pytest

from repro.isa.optypes import ALL_OP_CLASSES
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_generated_mix_matches_spec(name):
    kernel = build_kernel(name, scale=0.5)
    measured = kernel.op_class_mix()
    spec_mix = get_profile(name).spec.mix
    for cls in ALL_OP_CLASSES:
        assert measured[cls] == pytest.approx(spec_mix[cls], abs=0.06), \
            f"{name}: {cls.name} mix drifted from its specification"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_memory_instructions_respect_footprint(name):
    kernel = build_kernel(name, scale=0.25)
    # Scaled footprint: registry shrinks it with the workload.
    from repro.workloads.registry import scaled_spec
    footprint = scaled_spec(get_profile(name).spec, 0.25).footprint_lines
    for warp in kernel.warps:
        for inst in warp.decode():
            if inst.is_mem:
                assert 0 <= inst.line_addr < footprint


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_divergence_masks_legal(name):
    kernel = build_kernel(name, scale=0.25)
    lanes = [i.active_lanes for w in kernel.warps for i in w.decode()]
    assert all(1 <= l <= 32 for l in lanes)
    profile = get_profile(name)
    if profile.spec.branch_prob == 0.0:
        assert all(n == 32 for n in lanes)
