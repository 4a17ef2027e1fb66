"""Energy accounting on top of simulator + gating-controller counters.

All of the paper's energy results are *normalised*, which makes the
accounting exact given three ingredients per domain:

* powered cycles leak (``leak_per_cycle`` each),
* issued instructions burn dynamic energy (``dyn_per_issue`` each),
* every gating event burns a fixed overhead (``gate_overhead``; by the
  break-even definition, BET leak-cycles).

From these we derive the Figure 1b breakdown (dynamic / overhead /
static), the Figure 9 static-energy savings

    savings = (gated_cycles * leak - events * overhead) / (cycles * leak)

(which reduces to ``(gated_cycles - events * BET) / cycles`` with the
canonical overhead — leakage magnitude cancels), and the section 7.3
chip-level estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.params import EnergyParams, GTX480PowerModel


@dataclass(frozen=True)
class DomainEnergy:
    """Raw activity of one (or several summed) gating domains.

    ``lane_work`` is the divergence-weighted issue count: each issued
    instruction contributes its active-lane fraction (1.0 for a fully
    converged warp).  Dynamic energy scales with lane work, not raw
    issue counts, which is how mask-gated lanes save dynamic power.  It
    defaults to ``issues`` (no divergence).
    """

    cycles: int            # domain-cycles observed (cycles x n_domains)
    gated_cycles: int      # cycles spent with the gate closed
    issues: int            # warp instructions executed
    gating_events: int     # sleep-switch off/on pairs
    lane_work: float = -1.0

    def __post_init__(self) -> None:
        if min(self.cycles, self.gated_cycles, self.issues,
               self.gating_events) < 0:
            raise ValueError("activity counters must be non-negative")
        if self.gated_cycles > self.cycles:
            raise ValueError("gated_cycles cannot exceed cycles")
        if self.lane_work < 0:
            object.__setattr__(self, "lane_work", float(self.issues))
        if self.lane_work > self.issues + 1e-9:
            raise ValueError("lane_work cannot exceed issue count")

    def __add__(self, other: "DomainEnergy") -> "DomainEnergy":
        return DomainEnergy(
            cycles=self.cycles + other.cycles,
            gated_cycles=self.gated_cycles + other.gated_cycles,
            issues=self.issues + other.issues,
            gating_events=self.gating_events + other.gating_events,
            lane_work=self.lane_work + other.lane_work)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Absolute energies for one domain under one technique."""

    dynamic: float
    static: float
    overhead: float
    baseline_static: float

    @property
    def total(self) -> float:
        """Total energy under the evaluated gating configuration."""
        return self.dynamic + self.static + self.overhead

    @property
    def baseline_total(self) -> float:
        """Energy with no power gating at all (overhead-free)."""
        return self.dynamic + self.baseline_static

    def normalized(self) -> "EnergyBreakdown":
        """Components as fractions of the no-gating baseline (Fig. 1b)."""
        base = self.baseline_total
        if base == 0:
            return EnergyBreakdown(0.0, 0.0, 0.0, 0.0)
        return EnergyBreakdown(dynamic=self.dynamic / base,
                               static=self.static / base,
                               overhead=self.overhead / base,
                               baseline_static=self.baseline_static / base)

    @property
    def static_savings(self) -> float:
        """Fraction of baseline static energy saved, net of overhead.

        This is the Figure 9 y-axis; negative when gating overhead
        exceeded the leakage saved (e.g. ``backprop`` under conventional
        power gating).
        """
        if self.baseline_static == 0:
            return 0.0
        saved = self.baseline_static - self.static - self.overhead
        return saved / self.baseline_static


def domain_energy(activity: DomainEnergy,
                  params: EnergyParams) -> EnergyBreakdown:
    """Evaluate the energy model for one domain's activity."""
    powered = activity.cycles - activity.gated_cycles
    return EnergyBreakdown(
        dynamic=activity.lane_work * params.dyn_per_issue,
        static=powered * params.leak_per_cycle,
        overhead=activity.gating_events * params.gate_overhead,
        baseline_static=activity.cycles * params.leak_per_cycle)


def chip_level_savings(int_saving: float, fp_saving: float,
                       model: GTX480PowerModel = GTX480PowerModel(),
                       leakage_share_of_chip: float = 0.33) -> float:
    """Section 7.3: execution-unit savings -> total on-chip fraction.

    The INT and FP savings are weighted by each unit type's share of
    execution-unit leakage (GPUWattch: FP dwarfs INT on GTX480).
    """
    unit_total = model.int_units_leakage_w + model.fp_units_leakage_w
    if unit_total == 0:
        return 0.0
    blended = (int_saving * model.int_units_leakage_w
               + fp_saving * model.fp_units_leakage_w) / unit_total
    return model.chip_savings_fraction(blended, leakage_share_of_chip)
