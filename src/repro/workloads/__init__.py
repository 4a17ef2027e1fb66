"""Synthetic models of the paper's 18 GPGPU benchmarks.

The paper evaluates on Rodinia, Parboil and ISPASS workloads run inside
GPGPU-Sim.  We model each benchmark as a :class:`repro.isa.TraceSpec`
parameterised by the characteristics the paper reports:

* instruction mix (Figure 5a),
* active-warp population (Figure 5b),
* qualitative notes scattered through the text (e.g. ``lavaMD`` is
  integer-only; ``backprop`` and ``lavaMD`` keep their units busy).

See :mod:`repro.workloads.specs` for the table and the per-benchmark
rationale, and :mod:`repro.workloads.characterization` for the utilities
that format Figure 5 from the models' baseline runs.
"""

from repro.workloads.specs import (
    BENCHMARK_NAMES,
    INTEGER_ONLY_BENCHMARKS,
    BenchmarkProfile,
    get_profile,
)
from repro.workloads.registry import build_kernel

__all__ = [
    "BENCHMARK_NAMES",
    "INTEGER_ONLY_BENCHMARKS",
    "BenchmarkProfile",
    "get_profile",
    "build_kernel",
]
