"""The 18 evaluated benchmarks as statistical workload profiles.

Every profile wraps a :class:`repro.isa.TraceSpec` (what the trace
generator needs) plus runtime-model parameters (DRAM latency regime) and
the paper-reported reference characteristics we calibrate against.

Calibration sources:

* ``mix`` follows Figure 5a's per-benchmark instruction-type breakdown.
  The figure orders benchmarks by growing FP share, from the integer-only
  ``lavaMD``/``nw`` up to the FP-dominated ``sgemm``/``cutcp``; we assign
  fractions along that gradient.
* ``paper_avg_active_warps`` / ``paper_max_active_warps`` follow
  Figure 5b, which sorts benchmarks from ``srad`` (large active set) down
  to ``nw`` (tiny active set) and notes that only 5 of 18 average fewer
  than ten active warps.
* Memory parameters (locality, footprint, LDST share) are chosen so the
  simulated active-warp population lands near the Figure 5b values: a
  benchmark with many cache misses keeps more warps in the pending set
  and so shows a smaller active set.

These are models, not measurements of the original binaries; DESIGN.md
section 2 documents the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.isa.optypes import OpClass
from repro.isa.tracegen import TraceSpec


@dataclass(frozen=True)
class BenchmarkProfile:
    """A benchmark model plus its paper-reported reference points.

    Attributes:
        spec: Trace-generation parameters for the benchmark.
        dram_latency: Round-trip latency (cycles) of an L1 miss.
        paper_avg_active_warps: Average active-set size read off Fig. 5b.
        paper_max_active_warps: Maximum active-set size read off Fig. 5b.
        suite: Originating benchmark suite (Rodinia / Parboil / ISPASS).
        notes: Why the parameters look the way they do.
    """

    spec: TraceSpec
    dram_latency: int
    paper_avg_active_warps: float
    paper_max_active_warps: float
    suite: str
    notes: str = ""

    @property
    def name(self) -> str:
        """Benchmark name (matches the trace spec)."""
        return self.spec.name

    @property
    def is_integer_only(self) -> bool:
        """True when the benchmark issues no FP instructions.

        Figure 9b (FP static energy) excludes these benchmarks because
        their FP units never wake up at all.
        """
        return self.spec.mix.get(OpClass.FP, 0.0) == 0.0


def _mix(int_f: float, fp_f: float, sfu_f: float,
         ldst_f: float, name: str = "") -> Dict[OpClass, float]:
    """Build a mix dict and normalise away rounding slack.

    Raises:
        ValueError: If all four fractions are zero (or sum to <= 0) —
            normalising would divide by zero, and an all-zero mix means
            the spec's row was mistyped, not that the benchmark issues
            nothing.
    """
    total = int_f + fp_f + sfu_f + ldst_f
    if total <= 0:
        label = f" for {name!r}" if name else ""
        raise ValueError(
            f"instruction mix{label}: all four fractions are zero "
            f"(int={int_f}, fp={fp_f}, sfu={sfu_f}, ldst={ldst_f})")
    return {
        OpClass.INT: int_f / total,
        OpClass.FP: fp_f / total,
        OpClass.SFU: sfu_f / total,
        OpClass.LDST: ldst_f / total,
    }


# ---------------------------------------------------------------------------
# The benchmark table.
#
# Column intuition:  mix(int, fp, sfu, ldst) | warps, insns/warp, resident |
# dep(prob, dist) | mem(load_frac, footprint, locality, shared) | dram |
# fig5b(avg, max)
# ---------------------------------------------------------------------------

def _profile(name: str, suite: str, *,
             mix: Dict[OpClass, float],
             n_warps: int,
             instructions_per_warp: int,
             max_resident_warps: int,
             dep_prob: float,
             dep_distance_mean: float,
             load_fraction: float,
             footprint_lines: int,
             locality: float,
             shared_fraction: float,
             dram_latency: int,
             fig5b_avg: float,
             fig5b_max: float,
             notes: str,
             branch_prob: float = 0.02) -> BenchmarkProfile:
    spec = TraceSpec(
        name=name,
        mix=mix,
        n_warps=n_warps,
        instructions_per_warp=instructions_per_warp,
        max_resident_warps=max_resident_warps,
        dep_prob=dep_prob,
        dep_distance_mean=dep_distance_mean,
        load_fraction=load_fraction,
        footprint_lines=footprint_lines,
        locality=locality,
        shared_fraction=shared_fraction,
        branch_prob=branch_prob,
    )
    return BenchmarkProfile(
        spec=spec, dram_latency=dram_latency,
        paper_avg_active_warps=fig5b_avg,
        paper_max_active_warps=fig5b_max,
        suite=suite, notes=notes)


_PROFILES: Tuple[BenchmarkProfile, ...] = (
    _profile(
        "backprop", "Rodinia",
        mix=_mix(0.44, 0.34, 0.02, 0.20),
        n_warps=96, instructions_per_warp=72, max_resident_warps=48,
        dep_prob=0.32, dep_distance_mean=5.0,
        load_fraction=0.70, footprint_lines=1024, locality=0.85,
        shared_fraction=0.40, dram_latency=360,
        fig5b_avg=24.0, fig5b_max=32.0,
        notes=("Neural-net training; FP-heavy with highly utilised units "
               "(Fig. 8b: very few idle cycles, so PG saves little).")),
    _profile(
        "bfs", "Rodinia",
        mix=_mix(0.55, 0.10, 0.01, 0.34),
        n_warps=96, instructions_per_warp=56, max_resident_warps=48,
        dep_prob=0.40, dep_distance_mean=4.0,
        load_fraction=0.80, footprint_lines=16384, locality=0.35,
        shared_fraction=0.05, dram_latency=420,
        fig5b_avg=18.0, fig5b_max=30.0,
        notes=("Graph traversal; irregular global-memory bound, mostly "
               "integer address arithmetic; branch-divergent frontier "
               "checks."),
        branch_prob=0.12),
    _profile(
        "btree", "Rodinia",
        mix=_mix(0.52, 0.16, 0.01, 0.31),
        n_warps=72, instructions_per_warp=60, max_resident_warps=32,
        dep_prob=0.45, dep_distance_mean=4.0,
        load_fraction=0.85, footprint_lines=8192, locality=0.45,
        shared_fraction=0.05, dram_latency=400,
        fig5b_avg=12.0, fig5b_max=24.0,
        notes=("Pointer-chasing index search; memory-latency bound with "
               "divergent comparisons."),
        branch_prob=0.08),
    _profile(
        "cutcp", "Parboil",
        mix=_mix(0.22, 0.54, 0.08, 0.16),
        n_warps=96, instructions_per_warp=80, max_resident_warps=32,
        dep_prob=0.50, dep_distance_mean=3.5,
        load_fraction=0.75, footprint_lines=768, locality=0.88,
        shared_fraction=0.45, dram_latency=340,
        fig5b_avg=14.0, fig5b_max=26.0,
        notes=("Coulomb potential; FP dominated with transcendental work, "
               "tight dependency chains (Fig. 8b: many uncompensated "
               "gating events under ConvPG).")),
    _profile(
        "gaussian", "Rodinia",
        mix=_mix(0.44, 0.26, 0.01, 0.29),
        n_warps=24, instructions_per_warp=48, max_resident_warps=8,
        dep_prob=0.45, dep_distance_mean=3.5,
        load_fraction=0.75, footprint_lines=2048, locality=0.65,
        shared_fraction=0.10, dram_latency=380,
        fig5b_avg=5.0, fig5b_max=12.0,
        notes=("Gaussian elimination; row-by-row kernels leave few "
               "resident warps (one of the 5 benchmarks under 10 active "
               "warps in Fig. 5b).")),
    _profile(
        "heartwall", "Rodinia",
        mix=_mix(0.58, 0.11, 0.03, 0.28),
        n_warps=64, instructions_per_warp=88, max_resident_warps=24,
        dep_prob=0.40, dep_distance_mean=4.0,
        load_fraction=0.72, footprint_lines=2048, locality=0.75,
        shared_fraction=0.25, dram_latency=360,
        fig5b_avg=11.0, fig5b_max=22.0,
        notes="Image tracking; integer-leaning with moderate parallelism."),
    _profile(
        "hotspot", "Rodinia",
        mix=_mix(0.42, 0.29, 0.02, 0.27),
        n_warps=96, instructions_per_warp=64, max_resident_warps=48,
        dep_prob=0.35, dep_distance_mean=5.0,
        load_fraction=0.70, footprint_lines=1024, locality=0.85,
        shared_fraction=0.50, dram_latency=360,
        fig5b_avg=17.0, fig5b_max=28.0,
        notes=("Thermal stencil; the paper's representative benchmark for "
               "the Figure 3 idle-period histograms.")),
    _profile(
        "kmeans", "Rodinia",
        mix=_mix(0.48, 0.20, 0.02, 0.30),
        n_warps=64, instructions_per_warp=64, max_resident_warps=24,
        dep_prob=0.40, dep_distance_mean=4.5,
        load_fraction=0.85, footprint_lines=8192, locality=0.50,
        shared_fraction=0.05, dram_latency=420,
        fig5b_avg=10.0, fig5b_max=20.0,
        notes="Clustering; streaming reads dominate, moderate FP."),
    _profile(
        "lavaMD", "Rodinia",
        mix=_mix(0.76, 0.00, 0.02, 0.22),
        n_warps=96, instructions_per_warp=96, max_resident_warps=48,
        dep_prob=0.35, dep_distance_mean=5.0,
        load_fraction=0.70, footprint_lines=1024, locality=0.85,
        shared_fraction=0.40, dram_latency=340,
        fig5b_avg=16.0, fig5b_max=28.0,
        notes=("Integer-only in Fig. 5a ('a couple of pure integer "
               "workloads such as lavaMD'); INT units highly utilised so "
               "INT power gating barely pays off.")),
    _profile(
        "lbm", "Parboil",
        mix=_mix(0.26, 0.38, 0.01, 0.35),
        n_warps=96, instructions_per_warp=72, max_resident_warps=48,
        dep_prob=0.35, dep_distance_mean=5.0,
        load_fraction=0.60, footprint_lines=16384, locality=0.40,
        shared_fraction=0.05, dram_latency=440,
        fig5b_avg=26.0, fig5b_max=34.0,
        notes="Lattice-Boltzmann; bandwidth bound, large FP share."),
    _profile(
        "LIB", "ISPASS",
        mix=_mix(0.30, 0.37, 0.04, 0.29),
        n_warps=48, instructions_per_warp=64, max_resident_warps=16,
        dep_prob=0.45, dep_distance_mean=3.5,
        load_fraction=0.80, footprint_lines=4096, locality=0.55,
        shared_fraction=0.10, dram_latency=400,
        fig5b_avg=8.0, fig5b_max=17.0,
        notes=("LIBOR Monte-Carlo; few resident warps (under-10 group in "
               "Fig. 5b), weak critical-wakeup correlation in Fig. 6.")),
    _profile(
        "mri", "Parboil",
        mix=_mix(0.26, 0.40, 0.07, 0.27),
        n_warps=96, instructions_per_warp=72, max_resident_warps=48,
        dep_prob=0.40, dep_distance_mean=4.5,
        load_fraction=0.85, footprint_lines=1536, locality=0.80,
        shared_fraction=0.25, dram_latency=360,
        fig5b_avg=22.0, fig5b_max=31.0,
        notes=("MRI reconstruction (mri-q); trig-heavy FP, spends long "
               "in uncompensated state under ConvPG per Fig. 8b.")),
    _profile(
        "MUM", "ISPASS",
        mix=_mix(0.60, 0.06, 0.01, 0.33),
        n_warps=96, instructions_per_warp=56, max_resident_warps=48,
        dep_prob=0.40, dep_distance_mean=4.0,
        load_fraction=0.85, footprint_lines=16384, locality=0.30,
        shared_fraction=0.02, dram_latency=460,
        fig5b_avg=20.0, fig5b_max=32.0,
        notes=("Sequence alignment; integer compare + irregular memory; "
               "suffix-tree walks diverge heavily."),
        branch_prob=0.15),
    _profile(
        "NN", "Rodinia",
        mix=_mix(0.47, 0.21, 0.02, 0.30),
        n_warps=24, instructions_per_warp=40, max_resident_warps=8,
        dep_prob=0.45, dep_distance_mean=3.5,
        load_fraction=0.85, footprint_lines=2048, locality=0.60,
        shared_fraction=0.05, dram_latency=380,
        fig5b_avg=6.0, fig5b_max=13.0,
        notes=("Nearest neighbour; tiny kernels, few warps (under-10 "
               "group), sensitive to Blackout in Fig. 10.")),
    _profile(
        "nw", "Rodinia",
        mix=_mix(0.68, 0.00, 0.01, 0.31),
        n_warps=16, instructions_per_warp=48, max_resident_warps=6,
        dep_prob=0.50, dep_distance_mean=3.0,
        load_fraction=0.75, footprint_lines=1024, locality=0.70,
        shared_fraction=0.40, dram_latency=380,
        fig5b_avg=4.0, fig5b_max=10.0,
        notes=("Needleman-Wunsch; wavefront parallelism leaves the "
               "smallest active set in Fig. 5b; integer-only.")),
    _profile(
        "sgemm", "Parboil",
        mix=_mix(0.20, 0.57, 0.01, 0.22),
        n_warps=96, instructions_per_warp=96, max_resident_warps=32,
        dep_prob=0.30, dep_distance_mean=6.0,
        load_fraction=0.80, footprint_lines=512, locality=0.90,
        shared_fraction=0.50, dram_latency=320,
        fig5b_avg=15.0, fig5b_max=27.0,
        notes=("Dense matrix multiply; FP-dominated, high ILP, weak "
               "critical-wakeup correlation (no Blackout loss).")),
    _profile(
        "srad", "Rodinia",
        mix=_mix(0.36, 0.33, 0.03, 0.28),
        n_warps=128, instructions_per_warp=64, max_resident_warps=48,
        dep_prob=0.38, dep_distance_mean=4.5,
        load_fraction=0.70, footprint_lines=1536, locality=0.80,
        shared_fraction=0.30, dram_latency=360,
        fig5b_avg=28.0, fig5b_max=36.0,
        notes="Speckle-reducing diffusion; largest active set in Fig. 5b."),
    _profile(
        "WP", "ISPASS",
        mix=_mix(0.33, 0.36, 0.05, 0.26),
        n_warps=48, instructions_per_warp=72, max_resident_warps=16,
        dep_prob=0.42, dep_distance_mean=4.0,
        load_fraction=0.75, footprint_lines=3072, locality=0.60,
        shared_fraction=0.15, dram_latency=400,
        fig5b_avg=9.0, fig5b_max=18.0,
        notes=("Weather prediction; balanced mix, under-10 active-warp "
               "group, no Blackout performance loss in Fig. 6.")),
)

#: Name -> profile lookup, in the paper's alphabetical figure order.
PROFILES: Dict[str, BenchmarkProfile] = {p.name: p for p in _PROFILES}

#: Benchmark names in the order the paper's figures list them.
BENCHMARK_NAMES: Tuple[str, ...] = tuple(p.name for p in _PROFILES)

#: Benchmarks with zero FP instructions, excluded from FP-unit results
#: (Figure 9b).
INTEGER_ONLY_BENCHMARKS: Tuple[str, ...] = tuple(
    p.name for p in _PROFILES if p.is_integer_only)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name.

    Raises:
        KeyError: with the list of known names when the benchmark is
            unknown (typo guard for harness configs).
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(BENCHMARK_NAMES)
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
