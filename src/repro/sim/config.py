"""Simulator configuration.

Defaults follow the paper's evaluation setup (section 7.1): a GTX480-like
SM with two SP clusters of 16 double-clocked CUDA cores each (so one SP
cluster retires one warp-instruction per issue cycle), four SFUs, sixteen
LD/ST units, a two-level warp scheduler with dual issue, 48 resident
warps, 4-cycle ALU latency with single-cycle initiation interval, and the
power-gating parameters idle-detect = 5, break-even = 14, wakeup = 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemoryConfig:
    """L1 / memory-path parameters.

    Attributes:
        l1_sets: Number of L1 data-cache sets.
        l1_ways: Associativity.
        mshr_entries: Maximum outstanding L1 misses; a full MSHR back-
            pressures the LDST pipeline.
        l1_hit_latency: Extra cycles (beyond the LDST pipeline) for an L1
            hit to produce its value.  Kept short so hit-bound warps
            return to the ready pool quickly — the issue-bound regime
            the paper's idle-period distributions imply.
        shared_latency: Extra cycles for a shared-memory access.
        dram_latency: Extra cycles for an L1 miss (set per benchmark from
            its profile; this is the fallback default).
        dram_jitter: Fractional spread of miss latency due to memory-
            system queueing; each miss deterministically lands in
            ``dram_latency * [1 - jitter, 1 + jitter]``.  Jitter
            de-synchronises warps blocked on the same miss wave, which
            fragments execution-unit idle windows the way real DRAM
            contention does.
        pending_threshold: Remaining-latency boundary between a "short"
            wait (warp stays in the active set, not ready) and a "long
            latency event" that moves the warp to the pending set, per the
            two-level scheduler's definition.
    """

    l1_sets: int = 32
    l1_ways: int = 4
    mshr_entries: int = 32
    l1_hit_latency: int = 10
    shared_latency: int = 6
    dram_latency: int = 400
    dram_jitter: float = 0.35
    pending_threshold: int = 28

    def __post_init__(self) -> None:
        if self.l1_sets < 1 or (self.l1_sets & (self.l1_sets - 1)):
            raise ValueError("l1_sets must be a positive power of two")
        if self.l1_ways < 1:
            raise ValueError("l1_ways must be >= 1")
        if self.mshr_entries < 1:
            raise ValueError("mshr_entries must be >= 1")
        if not 0.0 <= self.dram_jitter < 1.0:
            raise ValueError("dram_jitter must be in [0, 1)")


@dataclass(frozen=True)
class SMConfig:
    """Streaming-multiprocessor structural parameters.

    Attributes:
        n_sp_clusters: SP clusters per SM; each contains one INT and one
            FP pipeline power-gated independently (Fermi: 2, Kepler: 6).
        issue_width: Warp instructions issued per cycle (two schedulers
            on GTX480).
        fetch_width: Decoded instructions delivered to instruction
            buffers per cycle.
        ibuffer_entries: Decoded-instruction slots per warp.
        max_resident_warps: Hardware warp slots (48 on Fermi).
        int_initiation_interval / fp_initiation_interval: Cycles an SP
            pipeline's dispatch port is held per warp instruction (16
            double-clocked lanes serve 32 threads in one issue cycle).
        sfu_initiation_interval: 4 SFUs serve a 32-thread warp over 8
            cycles.
        ldst_initiation_interval: 16 LD/ST units serve a fully coalesced
            warp access in one issue cycle (half-warp per core clock at
            the double-clocked units).
        memory: Memory-path parameters.
        max_cycles: Hard safety cap; the simulator raises if a kernel
            fails to drain (deadlock guard, not a tuning knob).
    """

    n_sp_clusters: int = 2
    issue_width: int = 2
    fetch_width: int = 4
    ibuffer_entries: int = 2
    max_resident_warps: int = 48
    int_initiation_interval: int = 1
    fp_initiation_interval: int = 1
    sfu_initiation_interval: int = 8
    ldst_initiation_interval: int = 1
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    max_cycles: int = 4_000_000

    def __post_init__(self) -> None:
        if self.n_sp_clusters < 1:
            raise ValueError("need at least one SP cluster")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.fetch_width < 1:
            raise ValueError("fetch_width must be >= 1")
        if self.ibuffer_entries < 1:
            raise ValueError("ibuffer_entries must be >= 1")
        if self.max_resident_warps < 1:
            raise ValueError("max_resident_warps must be >= 1")
        for name in ("int_initiation_interval", "fp_initiation_interval",
                     "sfu_initiation_interval", "ldst_initiation_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
