"""Kernel-trace construction for the benchmark suite.

The registry turns :class:`repro.workloads.specs.BenchmarkProfile` entries
into concrete :class:`repro.isa.KernelTrace` objects.  A ``scale`` knob
shrinks workloads proportionally (fewer warps, shorter traces) so unit
tests and pytest-benchmark runs stay fast while full-fidelity experiments
use ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.isa.trace import KernelTrace
from repro.isa.tracegen import TraceGenerator, TraceSpec
from repro.workloads.specs import get_profile


def scaled_spec(spec: TraceSpec, scale: float) -> TraceSpec:
    """Shrink (or grow) a trace spec while preserving its character.

    Warp count and per-warp instruction count scale together; resident
    warp cap and memory footprint scale with the warp count so occupancy
    and hit-rate regimes stay comparable.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if scale == 1.0:
        return spec
    n_warps = max(2, round(spec.n_warps * scale))
    return replace(
        spec,
        n_warps=n_warps,
        instructions_per_warp=max(8, round(spec.instructions_per_warp * scale)),
        max_resident_warps=max(2, min(round(spec.max_resident_warps * scale),
                                      n_warps)),
        footprint_lines=max(64, round(spec.footprint_lines * scale)),
    )


@lru_cache(maxsize=64)
def _generate_cached(name: str, seed: int, scale: float) -> KernelTrace:
    profile = get_profile(name)
    return TraceGenerator(scaled_spec(profile.spec, scale), seed=seed).generate()


def build_kernel(name: str, seed: int = 0, scale: float = 1.0) -> KernelTrace:
    """Generate the kernel trace for one benchmark.

    Generation is deterministic and a trace is immutable, so results
    are memoised per ``(name, seed, scale)``: an experiment grid that
    replays the same workload under several techniques builds the trace
    once instead of once per cell.  The memo holds packed trace columns
    (about 70 kB per full-scale benchmark); each SM run decodes its
    warps' instructions as they launch.

    Args:
        name: Benchmark name (see ``BENCHMARK_NAMES``).
        seed: Trace-generation seed; experiments hold this fixed across
            techniques so every technique replays the identical trace.
        scale: Workload size multiplier (1.0 = full model).
    """
    return _generate_cached(name, int(seed), float(scale))
