"""Multi-SM GPU wrapper.

GTX480 has 15 SMs; the paper's per-unit statistics are per-SM and the
SMs run independent thread blocks.  :class:`GPU` distributes a kernel's
warps round-robin over N SMs (block-level work distribution), runs each
SM independently, and aggregates results.

The one cross-SM interaction modelled is the shared memory side: a
:class:`~repro.core.device.MemorySideConfig` inflates the effective
DRAM latency as a deterministic function of how many SMs are active,
computed *once before the fan-out* — so SMs stay mutually independent
(and picklable for the parallel engine), and a single-SM device sees
exactly the base latency (the neutrality the single-SM golden digests
rely on).  Everything else the paper measures lives inside the SM.

A device is wired declaratively: a technique (anything
:func:`repro.core.spec.as_spec` resolves), an SM config and a DRAM
latency, all picklable, so every part is one
:class:`~repro.engine.jobs.SMPartJob` whether it runs in process or on
a :class:`~repro.engine.pool.ParallelEngine`.  :meth:`GPU.from_preset`
wires the full paper platform (``gtx480``) from the device-preset
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.isa.optypes import ExecUnitKind
from repro.isa.trace import KernelTrace, WarpTrace
from repro.power.energy import DomainEnergy, EnergyBreakdown, domain_energy
from repro.power.params import (
    EnergyParams,
    FP_DYN_PER_ISSUE,
    INT_DYN_PER_ISSUE,
)
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult

if TYPE_CHECKING:
    from repro.engine.jobs import SMPartJob


def split_kernel(kernel: KernelTrace, n_sms: int) -> List[KernelTrace]:
    """Distribute a kernel's warps round-robin over ``n_sms`` SMs.

    SMs with no warps are dropped (a tiny kernel may not fill the GPU).
    A part's warps are renumbered from 0 and share the kernel's trace
    columns.
    """
    if n_sms < 1:
        raise ValueError("n_sms must be >= 1")
    buckets: List[List[WarpTrace]] = [[] for _ in range(n_sms)]
    for i, warp in enumerate(kernel.warps):
        buckets[i % n_sms].append(warp)
    parts: List[KernelTrace] = []
    for sm_id, bucket in enumerate(buckets):
        if not bucket:
            continue
        renumbered = [w.renumbered(j) for j, w in enumerate(bucket)]
        parts.append(KernelTrace(
            name=f"{kernel.name}#sm{sm_id}", warps=renumbered,
            max_resident_warps=kernel.max_resident_warps))
    return parts


@dataclass
class GPUResult:
    """Aggregated multi-SM run results."""

    kernel_name: str
    technique: str
    sm_results: Tuple[SimResult, ...]

    @property
    def cycles(self) -> int:
        """Device runtime: the slowest SM bounds the kernel."""
        return max(r.cycles for r in self.sm_results)

    @property
    def total_instructions(self) -> int:
        """Warp instructions retired across every SM."""
        return sum(r.stats.instructions_retired for r in self.sm_results)

    def unit_activity(self, kind: ExecUnitKind) -> DomainEnergy:
        """Summed per-kind activity across all SMs."""
        total = DomainEnergy(0, 0, 0, 0)
        for result in self.sm_results:
            total = total + result.unit_activity(kind)
        return total

    def idle_histogram(self, kind: ExecUnitKind) -> Dict[int, int]:
        """Device-wide idle-period histogram for one unit kind."""
        merged: Dict[int, int] = {}
        for result in self.sm_results:
            for length, count in result.idle_histogram(kind).items():
                merged[length] = merged.get(length, 0) + count
        return merged

    def energy_breakdown(
            self, bet: int = 14) -> Dict[ExecUnitKind, EnergyBreakdown]:
        """Chip-level per-domain energy breakdown (Figure 1b shape).

        Sums every SM's INT/FP domain activity — leakage cycles, gated
        cycles, divergence-weighted issues, gating events — and runs
        the aggregate through the calibrated energy model, yielding
        one dynamic / static / overhead breakdown per unit kind for
        the whole chip.  ``bet`` sets the per-event gating overhead
        (break-even time, in leak-cycles; the paper's default is 14).
        """
        out: Dict[ExecUnitKind, EnergyBreakdown] = {}
        for kind, dyn in ((ExecUnitKind.INT, INT_DYN_PER_ISSUE),
                          (ExecUnitKind.FP, FP_DYN_PER_ISSUE)):
            params = EnergyParams.for_unit(dyn_per_issue=dyn, bet=bet)
            out[kind] = domain_energy(self.unit_activity(kind), params)
        return out


class GPU:
    """A device of independent SMs sharing a work distributor.

    ``GPU(n_sms, config, sm_config=..., dram_latency=...)`` wires every
    SM with technique ``config``; ``run(kernel, engine=...)`` fans the
    per-SM parts over a :class:`~repro.engine.pool.ParallelEngine`, and
    without an engine runs them in process, one after another.
    """

    def __init__(self, n_sms: int, config, *,
                 sm_config: Optional[SMConfig] = None,
                 dram_latency: Optional[int] = None,
                 memory_side=None,
                 fast_forward: bool = False) -> None:
        if n_sms < 1:
            raise ValueError("n_sms must be >= 1")
        self.n_sms = n_sms
        self.config = config
        self.sm_config = sm_config
        self.dram_latency = dram_latency
        self.memory_side = memory_side
        self.fast_forward = fast_forward

    @classmethod
    def from_preset(cls, name: str, config, *,
                    dram_latency: Optional[int] = None,
                    fast_forward: bool = False) -> "GPU":
        """Build the full chip a named device preset describes.

        ``config`` is the technique (anything
        :func:`repro.core.spec.as_spec` resolves); the preset supplies
        SM count, per-SM structure and the shared memory side.
        Unknown preset names raise with a did-you-mean suggestion.
        """
        from repro.core.device import device_preset
        preset = device_preset(name)
        return cls(preset.n_sms, config, sm_config=preset.sm,
                   dram_latency=dram_latency,
                   memory_side=preset.memory_side,
                   fast_forward=fast_forward)

    def _effective_dram_latency(self, n_active: int) -> Optional[int]:
        """Per-part DRAM latency after memory-side contention.

        Resolved once per launch from the *active* SM count (parts
        after empty-bucket dropping), before any SM runs — the
        contention model must not depend on runtime traffic, or the
        parts would stop being independent.
        """
        if self.memory_side is None or n_active <= 1:
            return self.dram_latency
        base = self.dram_latency
        if base is None:
            base = (self.sm_config or SMConfig()).memory.dram_latency
        return self.memory_side.effective_dram_latency(base, n_active)

    def part_jobs(self, kernel: KernelTrace) -> List[SMPartJob]:
        """One :class:`~repro.engine.jobs.SMPartJob` per non-empty part
        of ``kernel``, in SM order: what :meth:`run` dispatches."""
        from repro.engine.jobs import SMPartJob
        parts = split_kernel(kernel, self.n_sms)
        dram_latency = self._effective_dram_latency(len(parts))
        return [SMPartJob(part=part, config=self.config,
                          sm_config=self.sm_config or SMConfig(),
                          dram_latency=dram_latency,
                          fast_forward=self.fast_forward)
                for part in parts]

    def run(self, kernel: KernelTrace, engine=None) -> GPUResult:
        """Split, run and aggregate one kernel launch.

        Each SM part is one :class:`~repro.engine.jobs.SMPartJob` run
        by :func:`~repro.engine.jobs.execute_sm_part`: on the
        ``engine``'s workers when one is given, in process otherwise.
        Results are aggregated in part order either way.
        """
        from repro.engine.jobs import execute_sm_part
        jobs = self.part_jobs(kernel)
        if engine is not None:
            results = engine.map(execute_sm_part, jobs)
        else:
            results = [execute_sm_part(job) for job in jobs]
        technique = results[0].technique if results else "baseline"
        return GPUResult(kernel_name=kernel.name, technique=technique,
                         sm_results=tuple(results))
