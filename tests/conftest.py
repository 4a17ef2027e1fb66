"""Shared fixtures: small, fast workloads and pre-wired simulators."""

import pytest

from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.isa.instructions import fp_op, int_op, load_op
from repro.isa.optypes import OpClass
from repro.isa.trace import KernelTrace, WarpTrace
from repro.isa.tracegen import TraceSpec
from repro.sim.config import MemoryConfig, SMConfig


#: Scale used by tests that simulate real benchmark models.
TEST_SCALE = 0.25

#: A small but non-trivial structural configuration for unit tests.
SMALL_SM = SMConfig(max_resident_warps=16, max_cycles=200_000,
                    memory=MemoryConfig(mshr_entries=8))


@pytest.fixture
def small_sm_config() -> SMConfig:
    return SMALL_SM


@pytest.fixture
def balanced_spec() -> TraceSpec:
    """A balanced synthetic workload used across simulator tests."""
    return TraceSpec(
        name="balanced",
        mix={OpClass.INT: 0.4, OpClass.FP: 0.3,
             OpClass.SFU: 0.05, OpClass.LDST: 0.25},
        n_warps=12, instructions_per_warp=30, max_resident_warps=12,
        dep_prob=0.4, dep_distance_mean=4.0,
        load_fraction=0.7, footprint_lines=256, locality=0.7,
        shared_fraction=0.3)


@pytest.fixture
def tiny_kernel() -> KernelTrace:
    """Four hand-written warps exercising INT, FP and memory paths."""
    warps = [
        WarpTrace(0, (int_op(0), int_op(1, srcs=(0,)), fp_op(2, srcs=(1,)))),
        WarpTrace(1, (fp_op(0), fp_op(1, srcs=(0,)), int_op(2, srcs=(1,)))),
        WarpTrace(2, (load_op(0, line_addr=1), int_op(1, srcs=(0,)))),
        WarpTrace(3, (int_op(0), load_op(1, line_addr=2, srcs=(0,)),
                      fp_op(2, srcs=(1,)))),
    ]
    return KernelTrace(name="tiny", warps=warps, max_resident_warps=4)


@pytest.fixture
def small_runner() -> ExperimentRunner:
    """Runner over three contrasting benchmarks at test scale."""
    settings = ExperimentSettings(
        scale=TEST_SCALE, benchmarks=("hotspot", "bfs", "sgemm"))
    return ExperimentRunner(settings)
