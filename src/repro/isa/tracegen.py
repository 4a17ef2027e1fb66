"""Seeded synthetic trace generation.

The paper runs 18 real CUDA benchmarks inside GPGPU-Sim.  Without the
binaries or the simulator we substitute *statistical* traces: each
benchmark is described by a :class:`TraceSpec` whose parameters are taken
from what the paper itself measures (instruction mix from Figure 5a,
active-warp population from Figure 5b, plus memory intensity and
dependency structure chosen to land the runtime behaviour in the same
regime).  Generation is fully deterministic for a given seed.

Three structural properties of the generated streams matter for the
reproduction:

* **Instruction mix** drives how often the two-level scheduler switches
  between unit types, and therefore the raw idle-period distribution
  (Figure 3a).
* **Dependency distance** controls how soon an instruction becomes ready
  after its producer issues, i.e. how much reordering freedom GATES has.
* **Memory behaviour** (load fraction, locality, footprint) controls how
  many warps sit in the *pending* set at a time, which sets the size of
  the active set the schedulers pick from (Figure 5b).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.isa.divergence import DivergenceModel
from repro.isa.instructions import MemorySpace
from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.isa.trace import KernelTrace, WarpTrace, WarpTraceBuilder

#: Architectural registers available per warp.  Fermi allows up to 63
#: registers per thread; 32 is a typical compiled footprint and keeps the
#: dependency window realistic.
REGS_PER_WARP = 32

_OPCODES = {
    OpClass.INT: ("IADD", "IMUL", "ISETP", "SHL", "AND"),
    OpClass.FP: ("FADD", "FMUL", "FFMA", "FSETP"),
    OpClass.SFU: ("SIN", "COS", "RSQRT", "EX2"),
}


@dataclass(frozen=True)
class TraceSpec:
    """Statistical description of a benchmark's dynamic instruction stream.

    Attributes:
        name: Benchmark name.
        mix: Fraction of dynamic instructions per :class:`OpClass`.
            Must sum to 1 (within tolerance); fractions may be zero
            (e.g. ``lavaMD`` has no FP instructions).
        n_warps: Total warps launched (across all thread blocks).
        instructions_per_warp: Dynamic instructions per warp.
        max_resident_warps: Concurrent-warps cap per SM (48 on Fermi).
        dep_prob: Probability that each source operand of a generated
            instruction reads a *recent* destination register (creating a
            RAW dependency) rather than a long-dead or input value.
        dep_distance_mean: Mean of the geometric distribution used to pick
            how many instructions back the producer is.
        load_fraction: Fraction of LDST instructions that are loads (the
            rest are stores).
        footprint_lines: Number of distinct cache lines in the benchmark's
            working set; smaller footprints hit in L1 more often.
        locality: Probability that a memory access reuses one of the
            warp's recently touched lines instead of striding to a new
            one.  High locality => high L1 hit rate => few pending warps.
        shared_fraction: Fraction of memory accesses to shared memory
            (fixed short latency, never misses).
        branch_prob: Per-instruction probability of opening a divergent
            region (see :mod:`repro.isa.divergence`); 0 disables
            divergence and every instruction runs all 32 lanes.
        divergence_length: Mean instructions per divergent path.
        latency_by_class: Execution latency per op class.  Defaults match
            GPGPU-Sim's Fermi config quoted by the paper (4-cycle ALUs).
    """

    name: str
    mix: Dict[OpClass, float]
    n_warps: int = 48
    instructions_per_warp: int = 64
    max_resident_warps: int = 48
    dep_prob: float = 0.55
    dep_distance_mean: float = 3.0
    load_fraction: float = 0.75
    footprint_lines: int = 4096
    locality: float = 0.5
    shared_fraction: float = 0.2
    branch_prob: float = 0.0
    divergence_length: float = 6.0
    latency_by_class: Dict[OpClass, int] = field(default_factory=lambda: {
        OpClass.INT: 4,
        OpClass.FP: 4,
        OpClass.SFU: 16,
        OpClass.LDST: 2,
    })

    def __post_init__(self) -> None:
        total = sum(self.mix.get(cls, 0.0) for cls in ALL_OP_CLASSES)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"{self.name}: mix must sum to 1, got {total}")
        for cls in ALL_OP_CLASSES:
            frac = self.mix.get(cls, 0.0)
            if frac < 0:
                raise ValueError(f"{self.name}: negative mix for {cls.name}")
        if self.n_warps < 1 or self.instructions_per_warp < 1:
            raise ValueError(f"{self.name}: empty workload")
        if not 0.0 <= self.dep_prob <= 1.0:
            raise ValueError(f"{self.name}: dep_prob out of range")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"{self.name}: locality out of range")
        if not 0.0 <= self.load_fraction <= 1.0:
            raise ValueError(f"{self.name}: load_fraction out of range")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError(f"{self.name}: shared_fraction out of range")
        if self.footprint_lines < 1:
            raise ValueError(f"{self.name}: footprint must be >= 1 line")
        if not 0.0 <= self.branch_prob <= 1.0:
            raise ValueError(f"{self.name}: branch_prob out of range")
        if self.divergence_length < 1.0:
            raise ValueError(f"{self.name}: divergence_length must be >= 1")


class TraceGenerator:
    """Deterministic generator of :class:`KernelTrace` objects.

    Two generators built with the same spec and seed produce identical
    traces; this is the property every cross-technique comparison in the
    harness relies on.
    """

    #: Recently-touched lines remembered per warp for the locality model.
    _REUSE_WINDOW = 8

    def __init__(self, spec: TraceSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def generate(self) -> KernelTrace:
        """Build the kernel trace for this generator's spec and seed."""
        # zlib.crc32 (not hash()) keeps the per-benchmark stream offset
        # stable across processes; Python string hashing is randomised.
        name_key = zlib.crc32(self.spec.name.encode("utf-8")) & 0xFFFF
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(name_key,)))
        # The mix distribution is constant across warps; build it once.
        probs = np.array([self.spec.mix.get(cls, 0.0)
                          for cls in ALL_OP_CLASSES], dtype=float)
        probs = probs / probs.sum()
        warps = [self._generate_warp(warp_id, rng, probs)
                 for warp_id in range(self.spec.n_warps)]
        return KernelTrace(name=self.spec.name, warps=warps,
                           max_resident_warps=self.spec.max_resident_warps)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _generate_warp(self, warp_id: int, rng: np.random.Generator,
                       probs: np.ndarray) -> WarpTrace:
        """Generate one warp's instruction stream.

        This is the whole-suite generation hot loop, so the source/memory
        sampling is inlined with every per-instruction lookup hoisted to
        a local.  The RNG draw sequence (order, method, and arguments of
        every call) is part of the trace contract: two generators with
        the same spec and seed must keep producing byte-identical
        streams, so any edit here has to preserve it exactly.  Opcode
        selection indexes the tuple with ``integers(0, n)`` — the precise
        draw ``Generator.choice`` makes internally — instead of paying
        ``choice``'s per-call array conversion.
        """
        spec = self.spec
        # Instruction types are drawn i.i.d. from the mix; short
        # same-type runs appear naturally (as in real code) while the
        # long-run frequencies converge to Figure 5a's measured mix.
        classes = [ALL_OP_CLASSES[i]
                   for i in rng.choice(len(ALL_OP_CLASSES),
                                       size=spec.instructions_per_warp,
                                       p=probs)]
        builder = WarpTraceBuilder()
        # Destination registers rotate through the register file so that
        # dependency distance maps onto distinct registers.
        recent_dests: List[int] = []
        recent_lines: List[int] = []
        # Give each warp a private slice of the footprint plus a shared
        # region, mimicking blocked data-parallel access patterns.
        footprint = spec.footprint_lines
        warp_base = (warp_id * 97) % max(1, footprint)
        # A zero branch probability never consumes randomness and always
        # yields full warps, so the divergence model can be skipped
        # entirely without perturbing the stream.
        diverges = spec.branch_prob != 0.0
        divergence = DivergenceModel(spec.branch_prob,
                                     spec.divergence_length)

        rng_random = rng.random
        rng_integers = rng.integers
        rng_geometric = rng.geometric
        div_step = divergence.step
        append = builder.append
        dep_prob = spec.dep_prob
        # Geometric distance back into the recent-producer window.
        geo_p = 1.0 / max(1.0, spec.dep_distance_mean)
        shared_fraction = spec.shared_fraction
        locality = spec.locality
        load_fraction = spec.load_fraction
        latency_of = spec.latency_by_class
        ldst = OpClass.LDST
        ldst_latency = latency_of[ldst]
        reuse_window = self._REUSE_WINDOW
        shared_space = MemorySpace.SHARED
        global_space = MemorySpace.GLOBAL

        for position, op_class in enumerate(classes):
            lanes = div_step(rng) if diverges else 32
            dest = position % REGS_PER_WARP
            # Pick 1-2 source registers, biased toward recent producers.
            srcs: List[int] = []
            for _ in range(1 + (rng_random() < 0.6)):
                if recent_dests and rng_random() < dep_prob:
                    distance = int(rng_geometric(geo_p))
                    n_recent = len(recent_dests)
                    if distance > n_recent:
                        distance = n_recent
                    srcs.append(recent_dests[-distance])
                else:
                    srcs.append(int(rng_integers(0, REGS_PER_WARP)))
            if op_class is ldst:
                shared = rng_random() < shared_fraction
                if recent_lines and rng_random() < locality:
                    line = recent_lines[int(rng_integers(0,
                                                         len(recent_lines)))]
                else:
                    line = (warp_base
                            + int(rng_integers(0, footprint))) % footprint
                recent_lines.append(line)
                if len(recent_lines) > reuse_window:
                    recent_lines.pop(0)
                space = shared_space if shared else global_space
                if rng_random() < load_fraction:
                    append("LD", ldst, dest, srcs, ldst_latency, True,
                           False, space, line, lanes)
                else:
                    dest = None
                    append("ST", ldst, None, srcs, ldst_latency, False,
                           True, space, line, lanes)
            else:
                ops = _OPCODES[op_class]
                append(ops[int(rng_integers(0, len(ops)))], op_class, dest,
                       srcs, latency_of[op_class], False, False,
                       global_space, 0, lanes)
            if dest is not None:
                recent_dests.append(dest)
                if len(recent_dests) > REGS_PER_WARP:
                    recent_dests.pop(0)
        return builder.build(warp_id)


def generate_kernel(spec: TraceSpec, seed: int = 0) -> KernelTrace:
    """Convenience wrapper: build and run a :class:`TraceGenerator`."""
    return TraceGenerator(spec, seed=seed).generate()
