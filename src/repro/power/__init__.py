"""Power modelling: gating state machines, energy accounting, overheads.

* :mod:`repro.power.params` -- gating parameters (idle-detect, break-even
  time, wakeup delay) and the GTX480 power constants the paper quotes
  from GPUWattch/McPAT.
* :mod:`repro.power.gating` -- the per-domain power-gating state machine
  (conventional policy of Hu et al. [13]; the Blackout variants extend
  it from :mod:`repro.core.blackout`).
* :mod:`repro.power.energy` -- converts simulator + controller counters
  into the energy breakdowns and savings the figures report.
* :mod:`repro.power.overhead` -- the section 7.5 hardware-overhead
  bookkeeping (counter area and power).
"""

from repro.power.params import GatingParams, GTX480PowerModel, EnergyParams
from repro.power.gating import (
    DomainState,
    GatingDomain,
    ConventionalPolicy,
    GatingStats,
)
from repro.power.energy import (
    DomainEnergy,
    EnergyBreakdown,
    domain_energy,
    chip_level_savings,
)

__all__ = [
    "GatingParams",
    "GTX480PowerModel",
    "EnergyParams",
    "DomainState",
    "GatingDomain",
    "ConventionalPolicy",
    "GatingStats",
    "DomainEnergy",
    "EnergyBreakdown",
    "domain_energy",
    "chip_level_savings",
]
