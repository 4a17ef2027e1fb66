"""The paper's contribution: GATES, Blackout and Warped Gates.

* :mod:`repro.core.gates` -- the Gating-Aware Two-level Scheduler
  (section 4): per-type active-warp subsets and dynamic priority-based
  issue.
* :mod:`repro.core.blackout` -- Naive and Coordinated Blackout gating
  policies (section 5) plugged into the generic state machine of
  :mod:`repro.power.gating`.
* :mod:`repro.core.adaptive` -- Adaptive idle-detect (section 5.1),
  the epoch-based critical-wakeup feedback controller.
* :mod:`repro.core.spec` -- declarative technique identity: frozen
  :class:`~repro.core.spec.TechniqueSpec` values, the closed table of
  schedulers and gating policies, JSON round-trip and ``spec_hash()``.
* :mod:`repro.core.techniques` -- the paper's named techniques
  registered as specs and the ``build_sm`` factory wiring scheduler +
  policies + hooks onto a simulator instance;
  ``Technique.WARPED_GATES`` is the full system.
"""

from repro.core.gates import GatesScheduler
from repro.core.blackout import NaiveBlackoutPolicy, CoordinatedBlackoutPolicy
from repro.core.adaptive import AdaptiveIdleDetect
from repro.core.spec import (
    GatingPolicySpec,
    SchedulerSpec,
    TechniqueSpec,
    as_spec,
    register_technique,
    technique_names,
    technique_spec,
)
from repro.core.techniques import (
    Technique,
    build_sm,
    run_benchmark,
)

__all__ = [
    "GatesScheduler",
    "NaiveBlackoutPolicy",
    "CoordinatedBlackoutPolicy",
    "AdaptiveIdleDetect",
    "GatingPolicySpec",
    "SchedulerSpec",
    "TechniqueSpec",
    "as_spec",
    "register_technique",
    "technique_names",
    "technique_spec",
    "Technique",
    "build_sm",
    "run_benchmark",
]
