"""Technique registry and simulator wiring.

Technique identity lives in :mod:`repro.core.spec`: a
:class:`~repro.core.spec.TechniqueSpec` names a registered scheduler, a
registered gating policy, an optional adaptive idle-detect config and
the gating/SM parameter overrides.  This module registers the paper's
named techniques (plus the design-discussion ablations) as specs and
keeps the original closed :class:`Technique` enum as *named aliases*
into that registry — every ``Technique.X`` / ``.value`` call site keeps
working, while arbitrary scheduler x gating x adaptive compositions run
through the same :func:`build_sm` without touching core code.

Names follow the paper's evaluation nomenclature (section 7.2):

* ``BASELINE``          — two-level scheduler, no power gating.
* ``CONV_PG``           — two-level scheduler + conventional power gating.
* ``GATES``             — GATES scheduler + conventional power gating.
* ``NAIVE_BLACKOUT``    — GATES + Naive Blackout.
* ``COORD_BLACKOUT``    — GATES + Coordinated Blackout.
* ``WARPED_GATES``      — GATES + Coordinated Blackout + Adaptive
  idle-detect: the full system.

Plus ablations the paper's design discussion motivates but does not name:

* ``GATES_NO_PG``       — GATES scheduling alone (performance isolation).
* ``BLACKOUT_NO_GATES`` — Naive Blackout under the baseline scheduler
  (how much of Blackout's win needs GATES' coalescing?).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.adaptive import AdaptiveConfig, AdaptiveIdleDetect
from repro.core.spec import (
    GatingPolicySpec,
    PolicyContext,
    SchedulerSpec,
    TechniqueSpec,
    as_spec,
    gating_policy_plugin,
    register_technique,
    scheduler_plugin,
    technique_spec,
)
from repro.isa.optypes import CUDA_CORE_CLASSES, UNIT_FOR_OP_CLASS
from repro.isa.trace import KernelTrace
from repro.obs.bus import EventBus
from repro.power.gating import ConventionalPolicy, GatingDomain
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult, StreamingMultiprocessor
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile


class Technique(enum.Enum):
    """Scheduling / power-gating configurations under evaluation.

    Each member's ``value`` is the name of a registered
    :class:`~repro.core.spec.TechniqueSpec`; ``Technique.X.spec``
    resolves it.
    """

    BASELINE = "baseline"
    CONV_PG = "conv_pg"
    GATES = "gates"
    NAIVE_BLACKOUT = "naive_blackout"
    COORD_BLACKOUT = "coord_blackout"
    WARPED_GATES = "warped_gates"
    # ablations
    GATES_NO_PG = "gates_no_pg"
    BLACKOUT_NO_GATES = "blackout_no_gates"

    @property
    def spec(self) -> TechniqueSpec:
        """The registered spec this enum member aliases."""
        return technique_spec(self.value)


#: The five techniques of Figures 9 and 10, in the paper's legend order.
PAPER_TECHNIQUES = (
    Technique.CONV_PG,
    Technique.GATES,
    Technique.NAIVE_BLACKOUT,
    Technique.COORD_BLACKOUT,
    Technique.WARPED_GATES,
)


# ----------------------------------------------------------------------
# builtin technique registration (the enum's registry backing)
# ----------------------------------------------------------------------

_TWO_LEVEL = SchedulerSpec("two_level")
_GATES_SCHED = SchedulerSpec("gates")
_NO_PG = GatingPolicySpec("none")
_CONV = GatingPolicySpec("conventional")
_NAIVE = GatingPolicySpec("naive_blackout")
_COORD = GatingPolicySpec("coordinated_blackout")

for _spec, _group in (
    (TechniqueSpec(
        "baseline", scheduler=_TWO_LEVEL, gating_policy=_NO_PG,
        description="two-level scheduler, no power gating"), "paper"),
    (TechniqueSpec(
        "conv_pg", scheduler=_TWO_LEVEL, gating_policy=_CONV,
        description="two-level scheduler + conventional power gating"),
     "paper"),
    (TechniqueSpec(
        "gates", scheduler=_GATES_SCHED, gating_policy=_CONV,
        description="GATES scheduler + conventional power gating"),
     "paper"),
    (TechniqueSpec(
        "naive_blackout", scheduler=_GATES_SCHED, gating_policy=_NAIVE,
        description="GATES + Naive Blackout"), "paper"),
    (TechniqueSpec(
        "coord_blackout", scheduler=_GATES_SCHED, gating_policy=_COORD,
        description="GATES + Coordinated Blackout"), "paper"),
    (TechniqueSpec(
        "warped_gates", scheduler=_GATES_SCHED, gating_policy=_COORD,
        adaptive=AdaptiveConfig(),
        description="GATES + Coordinated Blackout + adaptive idle-detect "
                    "(the full system)"), "paper"),
    (TechniqueSpec(
        "gates_no_pg", scheduler=_GATES_SCHED, gating_policy=_NO_PG,
        description="GATES scheduling alone (performance isolation)"),
     "ablation"),
    (TechniqueSpec(
        "blackout_no_gates", scheduler=_TWO_LEVEL, gating_policy=_NAIVE,
        description="Naive Blackout under the baseline scheduler"),
     "ablation"),
):
    register_technique(_spec, group=_group, allow_replace=True)
del _spec, _group


def build_sm(kernel: KernelTrace, config,
             sm_config: Optional[SMConfig] = None,
             dram_latency: Optional[int] = None,
             bus: Optional["EventBus"] = None,
             fast_forward: bool = False) -> StreamingMultiprocessor:
    """Assemble an SM wired for one technique.

    ``config`` is anything :func:`repro.core.spec.as_spec` resolves: a
    :class:`TechniqueSpec`, a registered technique name or a
    :class:`Technique` member.  The wiring mirrors Figure 7: the
    scheduler plugin, the per-cluster gating domains with their policy,
    and — when the spec enables adaptation — the per-type adaptive
    idle-detect hooks.

    ``bus`` is an optional observability bus shared by the SM, its
    gating domains, the scheduler and the epoch hooks; omitted, the SM
    creates its own disabled one (reachable as ``sm.bus``).

    ``fast_forward`` runs the SM's stepping engine: every cycle is
    either skipped as part of a provably-quiet span
    (:mod:`repro.sim.fastforward`) or stepped by the dense kernel
    (:mod:`repro.sim.kernel`) — bit-identical results.  Off by default
    so direct ``build_sm`` users (golden tests, examples) exercise the
    serial ``_step`` loop, the oracle; the parallel engine turns it on.
    """
    spec = as_spec(config)
    sm_config = spec.apply_sm_overrides(sm_config or SMConfig())

    n_slots = min(sm_config.max_resident_warps, kernel.max_resident_warps)
    scheduler = scheduler_plugin(spec.scheduler.name).build(
        n_slots, spec.scheduler, blackout_aware=spec.blackout_aware)

    sm = StreamingMultiprocessor(kernel, sm_config, scheduler,
                                 dram_latency=dram_latency,
                                 technique=spec.name,
                                 bus=bus, fast_forward=fast_forward)
    if not spec.gated:
        return sm

    _attach_cuda_core_domains(sm, spec)
    if spec.gate_sfu:
        sfu_domain = GatingDomain("SFU", spec.gating, ConventionalPolicy())
        sm.attach_domain("SFU", sfu_domain)
    return sm


def _attach_cuda_core_domains(sm: StreamingMultiprocessor,
                              spec: TechniqueSpec) -> None:
    plugin = gating_policy_plugin(spec.gating_policy.name)
    for cls in CUDA_CORE_CLASSES:
        pipes = sm.pipelines_of(UNIT_FOR_OP_CLASS[cls])
        # One policy instance per unit type, shared by the type's
        # cluster domains (coordinated policies require it; stateless
        # ones don't care).
        policy = plugin.build(PolicyContext(sm=sm, op_class=cls),
                              spec.gating_policy)

        domains: List[GatingDomain] = []
        for pipe in pipes:
            domain = GatingDomain(pipe.name, spec.gating, policy)
            if plugin.wire is not None:
                plugin.wire(policy, domain)
            sm.attach_domain(pipe.name, domain)
            domains.append(domain)

        if spec.adaptive is not None:
            sm.add_hook(AdaptiveIdleDetect(domains, spec.adaptive,
                                           bus=sm.bus, label=cls.name))


def run_benchmark(name: str, config,
                  sm_config: Optional[SMConfig] = None,
                  seed: int = 0, scale: float = 1.0,
                  bus: Optional["EventBus"] = None,
                  fast_forward: bool = False) -> SimResult:
    """Build, wire and run one benchmark under one technique.

    Uses the benchmark profile's DRAM latency; the trace for a given
    ``(name, seed, scale)`` is identical across techniques, which is what
    makes the paper's normalised comparisons meaningful.
    ``fast_forward`` selects the stepping engine as in :func:`build_sm`.
    """
    kernel = build_kernel(name, seed=seed, scale=scale)
    profile = get_profile(name)
    sm = build_sm(kernel, config, sm_config=sm_config,
                  dram_latency=profile.dram_latency, bus=bus,
                  fast_forward=fast_forward)
    return sm.run()
