"""Warped Gates (MICRO 2013) reproduction.

A trace-driven, cycle-level GPGPU SM simulator plus the paper's three
techniques — the GATES gating-aware warp scheduler, Blackout power
gating (naive and coordinated), and Adaptive idle-detect — together
called *Warped Gates*.

Quick start::

    from repro import Technique, run_benchmark

    base = run_benchmark("hotspot", Technique.BASELINE)
    wg = run_benchmark("hotspot", Technique.WARPED_GATES)
    print(base.cycles, wg.cycles)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.core.spec import (
    GatingPolicySpec,
    SchedulerSpec,
    TechniqueSpec,
    register_technique,
    technique_spec,
)
from repro.core.techniques import (
    PAPER_TECHNIQUES,
    Technique,
    build_sm,
    run_benchmark,
)
from repro.power.params import EnergyParams, GatingParams
from repro.sim.config import MemoryConfig, SMConfig
from repro.workloads.specs import BENCHMARK_NAMES

__version__ = "1.0.0"

__all__ = [
    "PAPER_TECHNIQUES",
    "Technique",
    "GatingPolicySpec",
    "SchedulerSpec",
    "TechniqueSpec",
    "register_technique",
    "technique_spec",
    "build_sm",
    "run_benchmark",
    "EnergyParams",
    "GatingParams",
    "MemoryConfig",
    "SMConfig",
    "BENCHMARK_NAMES",
    "__version__",
]
