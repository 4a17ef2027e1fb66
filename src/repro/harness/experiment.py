"""Memoising experiment runner and the figures' normalised metrics.

Every paper figure compares *the same trace* replayed under different
techniques, so the runner keys its cache on (benchmark, resolved
technique-spec hash, seed, scale) and reuses results across figure
builders — a full figure set touches the same ~110 runs many times.
Because the key is the :meth:`~repro.core.spec.TechniqueSpec.spec_hash`
of the *resolved* spec, an enum member, its name string, and an equal
hand-built spec all land on the same memo cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.adaptive import AdaptiveConfig
from repro.core.spec import TechniqueSpec, as_spec
from repro.core.techniques import Technique
from repro.isa.optypes import ExecUnitKind
from repro.obs.manifest import RunManifest
from repro.power.energy import domain_energy, EnergyBreakdown
from repro.power.params import (
    EnergyParams,
    FP_DYN_PER_ISSUE,
    GatingParams,
    INT_DYN_PER_ISSUE,
)
from repro.engine.jobs import JobRequest
from repro.service.core import JobTicket, SimulationService
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult
from repro.workloads.specs import (
    BENCHMARK_NAMES,
    INTEGER_ONLY_BENCHMARKS,
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Global knobs shared by all runs of one experiment campaign.

    Attributes:
        seed: Trace-generation seed (identical across techniques).
        scale: Workload scale factor; 1.0 reproduces the full models,
            smaller values keep unit tests and pytest-benchmark runs
            fast while preserving workload character.
        gating: Power-gating parameters (idle-detect 5 / BET 14 /
            wakeup 3 by default, the paper's configuration).
        sm_config: Structural SM parameters.
        benchmarks: Benchmarks in scope (default: the full suite).
    """

    seed: int = 0
    scale: float = 1.0
    gating: GatingParams = field(default_factory=GatingParams)
    sm_config: SMConfig = field(default_factory=SMConfig)
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES

    def energy_params(self, kind: ExecUnitKind) -> EnergyParams:
        """Energy model for one unit kind under these gating params."""
        dyn = INT_DYN_PER_ISSUE if kind is ExecUnitKind.INT \
            else FP_DYN_PER_ISSUE
        return EnergyParams.for_unit(dyn_per_issue=dyn, bet=self.gating.bet)


def static_savings(result: SimResult, kind: ExecUnitKind,
                   gating: GatingParams) -> float:
    """Figure 9 metric of one finished run: net static energy saved."""
    params = EnergyParams.for_unit(
        dyn_per_issue=(INT_DYN_PER_ISSUE if kind is ExecUnitKind.INT
                       else FP_DYN_PER_ISSUE),
        bet=gating.bet)
    return domain_energy(result.unit_activity(kind), params).static_savings


class ExperimentRunner:
    """Runs and caches (benchmark, technique) simulations.

    The runner is a thin, figure-oriented veneer over the
    :class:`~repro.service.core.SimulationService` — since the service
    refactor it resolves techniques against the campaign's settings,
    builds :class:`~repro.engine.jobs.JobRequest`\\ s, and lets the
    service dedupe, execute and memoise.  ``settings`` defaults to a
    fresh :class:`ExperimentSettings` built *per runner* (never a
    shared module-level instance).

    ``engine``, when given, runs the simulations
    (:class:`repro.engine.pool.ParallelEngine`): they gain its
    persistent result cache, the fast-forward engine and — via
    :meth:`prefetch` — process-pool fan-out.  Without one, the
    service's default in-process engine runs the serial oracle,
    uncached.  Results are bit-identical either way.  (Engine batches
    are observable the cross-process way — give the engine an
    :class:`~repro.obs.telemetry.EngineTelemetry` and its workers relay
    digested events to the parent bus; each :meth:`prefetch` grid also
    lands in the run ledger.)

    ``service``, when given, shares an existing
    :class:`SimulationService` (and its single-flight memo) with other
    runners — the replication harness hands one service to every
    per-seed runner; ``engine`` is then ignored for the service's own.

    Every simulation appends a :class:`RunManifest` to
    ``self.manifests``: the run's exact configuration (hashed), its
    wall-clock cost per phase and its simulated-cycles/second
    throughput — the provenance record the CLI's ``--profile`` flag
    surfaces.  Manifests are per-runner (each runner records the cells
    *it* read, once each), while results are memoised service-wide.
    """

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 engine=None,
                 service: Optional[SimulationService] = None):
        self.settings = settings if settings is not None \
            else ExperimentSettings()
        self.service = service if service is not None \
            else SimulationService(engine=engine)
        #: Tickets whose manifests this runner has recorded already.
        self._recorded: Set[str] = set()
        #: Provenance records, one per simulation read through this
        #: runner (cells are recorded once per runner), in run order.
        self.manifests: List[RunManifest] = []

    def _resolve(self, technique,
                 gating: Optional[GatingParams] = None,
                 adaptive: Optional[AdaptiveConfig] = None) -> TechniqueSpec:
        """Resolve a technique (enum / name / spec) plus overrides.

        An explicit ``gating`` override always wins; otherwise enum and
        name references inherit the campaign's ``settings.gating``,
        while a hand-built spec keeps its own parameters.  An
        ``adaptive`` override only applies to adaptive-capable specs —
        the others ignore it, exactly as the pre-spec wiring did.

        A spec that already carries the wanted parameters is returned
        itself, not cloned, so its memoised hash is reused across
        calls.  "Already carries" compares reprs, not ``==``: equal
        parameters of another type (``bet=14.0``) hash differently.
        """
        spec = as_spec(technique)
        if gating is None and not isinstance(technique, TechniqueSpec):
            gating = self.settings.gating
        if gating is not None and repr(gating) != repr(spec.gating):
            spec = replace(spec, gating=gating)
        if (adaptive is not None and spec.adaptive is not None
                and repr(adaptive) != repr(spec.adaptive)):
            spec = replace(spec, adaptive=adaptive)
        return spec

    def _request(self, benchmark: str,
                 spec: TechniqueSpec) -> JobRequest:
        """One service request under this campaign's settings.

        ``fast_forward=None`` defers to the engine's configured default
        (off on the service's default in-process engine).
        """
        return JobRequest(benchmark=benchmark, technique=spec,
                          sm_config=self.settings.sm_config,
                          seed=self.settings.seed,
                          scale=self.settings.scale)

    def _record(self, ticket: JobTicket) -> None:
        """Append the ticket's manifest once per runner."""
        if ticket.outcome is None or ticket.job_id in self._recorded:
            return
        self._recorded.add(ticket.job_id)
        self.manifests.append(ticket.outcome.manifest)

    def run(self, benchmark: str, technique,
            gating: Optional[GatingParams] = None,
            adaptive: Optional[AdaptiveConfig] = None) -> SimResult:
        """Run one configuration (memoised service-wide).

        ``technique`` is anything :func:`repro.core.spec.as_spec`
        resolves: a :class:`Technique` member, a registered name, or a
        :class:`~repro.core.spec.TechniqueSpec`.  A cell whose job
        terminally failed (exception, timeout, fail-fast
        cancellation — after any retries) raises
        :class:`~repro.engine.faults.JobFailedError`; the failure is
        memoised too, so the cell is never silently re-simulated.
        """
        spec = self._resolve(technique, gating, adaptive)
        ticket, _ = self.service.submit(self._request(benchmark, spec))
        try:
            self.service.execute(ticket)
        finally:
            self._record(ticket)
        return ticket.result()

    @property
    def failures(self) -> List[RunManifest]:
        """Manifests of the cells that terminally failed, in run order."""
        return [m for m in self.manifests if not m.ok]

    def prefetch(self, requests: Sequence[Tuple]) -> None:
        """Run many configurations at once through the engine.

        ``requests`` are ``(benchmark, technique)`` or
        ``(benchmark, technique, gating)`` or
        ``(benchmark, technique, gating, adaptive)`` tuples.  Already-
        memoised cells are skipped (service-wide single-flight); the
        rest fan out over the engine's worker pool as one ledgered
        batch, so subsequent :meth:`run` calls (and every derived
        metric) are pure lookups.
        """
        job_requests = []
        for request in requests:
            benchmark, technique = request[0], request[1]
            gating = request[2] if len(request) > 2 else None
            adaptive = request[3] if len(request) > 3 else None
            spec = self._resolve(technique, gating, adaptive)
            job_requests.append(self._request(benchmark, spec))
        for ticket in self.service.prefetch(job_requests):
            # Partial grids complete: failed cells are memoised by the
            # service and surface as JobFailedError when read.
            self._record(ticket)

    def baseline(self, benchmark: str) -> SimResult:
        """The no-gating two-level reference run for one benchmark."""
        return self.run(benchmark, Technique.BASELINE)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    def static_savings(self, benchmark: str, technique,
                       kind: ExecUnitKind,
                       gating: Optional[GatingParams] = None) -> float:
        """Figure 9 metric: net static energy saved vs no gating."""
        gating = gating or self.settings.gating
        return static_savings(self.run(benchmark, technique, gating=gating),
                              kind, gating)

    def energy_breakdown(self, benchmark: str, technique: Technique,
                         kind: ExecUnitKind) -> EnergyBreakdown:
        """Figure 1b metric: dynamic / overhead / static components."""
        result = self.run(benchmark, technique)
        return domain_energy(result.unit_activity(kind),
                             self.settings.energy_params(kind))

    def fp_benchmarks(self) -> Tuple[str, ...]:
        """Benchmarks with FP activity (Figure 9b's population)."""
        return tuple(b for b in self.settings.benchmarks
                     if b not in INTEGER_ONLY_BENCHMARKS)


def normalized_performance(baseline: SimResult, result: SimResult) -> float:
    """Figure 10 metric: baseline cycles / technique cycles (1.0 = no
    slowdown, below 1.0 = the technique lost performance)."""
    if result.cycles == 0:
        raise ValueError("degenerate run with zero cycles")
    return baseline.cycles / result.cycles


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (Figure 10's summary statistic).

    Strict flavour: raises on non-positive input so silent zeros in a
    ratio column can't corrupt a summary.  Figure tables that must stay
    total in the presence of degenerate benchmarks (a zero-baseline
    denominator emits NaN) summarise with :func:`geomean_excluding`
    instead — both share one exclusion policy, so a figure table and a
    headline check can never disagree about the same column.
    """
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_excluding(values: Iterable[float]) -> Tuple[float, int]:
    """Geometric mean with the documented exclusion policy.

    The one policy both the figure geomean rows and the artifact
    headline checks apply: non-finite (NaN, +/-inf) and non-positive
    values are *excluded* — never clamped — and the exclusion count is
    returned so tables can report it.  Returns ``(nan, len(values))``
    when nothing survives; excluding a degenerate value is therefore
    exactly equivalent to dropping that benchmark from the column.
    """
    values = list(values)
    kept = [v for v in values if math.isfinite(v) and v > 0]
    excluded = len(values) - len(kept)
    if not kept:
        return math.nan, excluded
    return geomean(kept), excluded
