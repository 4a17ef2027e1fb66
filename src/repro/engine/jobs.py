"""Picklable job specs and the worker functions that execute them.

A worker process receives a frozen job spec (everything needed to
reproduce one simulation), executes it, and returns the
:class:`~repro.sim.sm.SimResult` plus a
:class:`~repro.obs.manifest.RunManifest` provenance record.  Results
are deterministic functions of the spec — the simulator has no hidden
global state — which is what makes both the process fan-out and the
on-disk cache sound.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.core.adaptive import AdaptiveConfig
from repro.core.spec import TechniqueSpec, as_spec
from repro.core.techniques import build_sm
from repro.engine.cache import RESULT_SCHEMA, TRACE_SCHEMA, RunCache
from repro.engine.faults import JobReport, JobStatus
from repro.isa.trace import KernelTrace
from repro.isa.tracegen import TraceGenerator
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.telemetry import JobTelemetry, current_worker, job_label
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult
from repro.workloads.registry import scaled_spec
from repro.workloads.specs import get_profile


def _worker_name() -> str:
    return multiprocessing.current_process().name


# ----------------------------------------------------------------------
# kernel-trace memoisation
# ----------------------------------------------------------------------

def trace_cache_key(benchmark: str, seed: int, scale: float) -> str:
    """Cache key for one generated kernel trace.

    Keyed by the *scaled spec* (not just the name) so editing a
    benchmark profile invalidates its traces, plus seed and scale.
    ``scale`` is keyed as a float, so ``1`` and ``1.0`` share a trace.
    """
    scale = float(scale)
    spec = scaled_spec(get_profile(benchmark).spec, scale)
    return (f"{benchmark}-s{seed}-"
            f"{config_hash(spec, seed, scale, TRACE_SCHEMA)}")


def load_or_build_kernel(benchmark: str, seed: int, scale: float,
                         cache: Optional[RunCache] = None) -> KernelTrace:
    """Memoised :func:`repro.workloads.registry.build_kernel`.

    With a cache, the generated trace is stored on disk so parallel
    workers (and later sessions) deserialise instead of regenerating —
    trace generation is a visible fraction of small-run wall time.
    """
    spec = scaled_spec(get_profile(benchmark).spec, scale)
    if cache is None:
        return TraceGenerator(spec, seed=seed).generate()
    key = trace_cache_key(benchmark, seed, scale)
    kernel = cache.get("traces", key)
    if kernel is None:
        kernel = TraceGenerator(spec, seed=seed).generate()
        cache.put("traces", key, kernel)
    return kernel


# ----------------------------------------------------------------------
# whole-run jobs (one experiment-grid cell)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimJob:
    """One (benchmark × technique) simulation, fully specified.

    ``config`` is anything :func:`repro.core.spec.as_spec` resolves —
    a :class:`~repro.core.spec.TechniqueSpec`, a registered technique
    name, a :class:`~repro.core.techniques.Technique` member or a
    legacy :class:`~repro.core.techniques.TechniqueConfig`.  It is kept
    exactly as given (callers may inspect what they submitted); the
    :attr:`spec` property is the resolved identity every derived key
    and manifest uses.

    The job is frozen, so its identity — :attr:`spec`,
    :meth:`cache_key` and :attr:`manifest_hash` — is derived once per
    instance and travels with it (into pool workers too).  ``scale``
    is stored as a float: ``scale=1`` and ``scale=1.0`` are one run.
    """

    benchmark: str
    config: object
    sm_config: SMConfig = field(default_factory=SMConfig)
    seed: int = 0
    scale: float = 1.0
    fast_forward: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", float(self.scale))

    @cached_property
    def spec(self) -> TechniqueSpec:
        """The resolved technique spec this job runs."""
        return as_spec(self.config)

    @cached_property
    def manifest_hash(self) -> str:
        """The ``config_hash`` this job's manifests carry."""
        return config_hash(self.spec.spec_hash(), self.sm_config)

    def cache_key(self) -> str:
        """Result-cache key: human-readable prefix + full config hash.

        Keyed on the spec's canonical hash, so an enum member, its name
        string and an equal hand-built spec share cache entries.
        ``fast_forward`` is part of the key even though results are
        bit-identical by contract — a fast-forward bug then cannot
        poison serially-produced entries (or the other way round).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            spec = self.spec
            profile = get_profile(self.benchmark)
            digest = config_hash(
                scaled_spec(profile.spec, self.scale), spec.spec_hash(),
                self.sm_config, self.seed, self.scale,
                profile.dram_latency, self.fast_forward, RESULT_SCHEMA)
            key = f"{self.benchmark}-{spec.name}-s{self.seed}-{digest}"
            object.__setattr__(self, "_cache_key", key)
        return key


@dataclass
class JobOutcome:
    """What the engine returns for one :class:`SimJob`.

    Successful jobs carry the :class:`~repro.sim.sm.SimResult`; failed
    ones carry ``result=None`` plus a failure manifest, so a batch with
    bad cells still comes back whole and in submission order.
    """

    result: Optional[SimResult]
    manifest: RunManifest
    status: JobStatus = JobStatus.OK
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the job produced a result."""
        return self.status is JobStatus.OK


def failure_manifest(job: SimJob, report: JobReport) -> RunManifest:
    """Provenance record for a cell that produced no result.

    Pins the failed run to its exact configuration — the same identity
    a successful manifest carries — so a sweep's manifest list records
    exactly which cells failed, how often they were attempted, and why.
    """
    spec = job.spec
    return RunManifest(
        benchmark=job.benchmark,
        technique=spec.name,
        seed=job.seed,
        scale=job.scale,
        config_hash=job.manifest_hash,
        cycles=0,
        instructions=0,
        status=report.status.value,
        error=report.error,
        attempts=max(report.attempts, 0),
        spec=spec.to_dict())


def outcome_from_report(job: SimJob, report: JobReport) -> JobOutcome:
    """Fold one :class:`JobReport` into the sim-job outcome shape."""
    if report.ok:
        outcome = report.value
        outcome.attempts = report.attempts
        outcome.manifest.attempts = report.attempts
        return outcome
    return JobOutcome(result=None, manifest=failure_manifest(job, report),
                      status=report.status, error=report.error,
                      attempts=report.attempts)


def execute_job(job: SimJob,
                cache_dir: Optional[str] = None,
                cache_max_bytes: Optional[int] = None) -> JobOutcome:
    """Execute one grid cell (top-level, hence picklable).

    Checks the result cache first; on a miss, builds the (trace-cached)
    kernel, wires the SM and runs it, then stores the result.  Either
    way a :class:`RunManifest` records what happened — cache hits carry
    ``cache_hit=True`` and a ``cache_load`` wall phase, fresh runs the
    usual ``build_trace`` / ``simulate`` phases — and ``worker`` names
    the executing process.

    When the process carries worker telemetry (installed by the pool
    initializer, or the engine's inline path), the job runs inside a
    telemetry session: :class:`~repro.obs.telemetry.JobStarted` goes
    out immediately, cache hits/misses stream as they happen, sim
    events are digested by a bounded sampler, and a compact
    :class:`~repro.obs.telemetry.WorkerEventSummary` ships when the
    job completes.  Without telemetry (the default) this function is
    byte-for-byte the old path: one ``None`` check, disabled sim bus.

    The cache is opened with the janitor off: sweeping orphaned temp
    files is the engine's once-per-batch job
    (:meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs`), not
    something every job in every worker should re-pay.
    """
    telemetry = current_worker()
    if telemetry is None:
        return _run_cell(job, cache_dir, cache_max_bytes, None)
    with telemetry.profile_job():
        return _run_cell(job, cache_dir, cache_max_bytes,
                         telemetry.job_session(job_label(job)))


def _run_cell(job: SimJob, cache_dir: Optional[str],
              cache_max_bytes: Optional[int],
              session: Optional[JobTelemetry]) -> JobOutcome:
    cache = RunCache(cache_dir, max_bytes=cache_max_bytes,
                     janitor=False,
                     listener=session.emit if session is not None
                     else None) if cache_dir else None
    spec = job.spec
    key = job.cache_key()

    if cache is not None:
        t0 = time.perf_counter()
        result = cache.get("results", key)
        if result is not None:
            manifest = RunManifest(
                benchmark=job.benchmark,
                technique=spec.name,
                seed=job.seed,
                scale=job.scale,
                config_hash=job.manifest_hash,
                cycles=result.cycles,
                instructions=result.stats.instructions_retired,
                wall_seconds={"cache_load": time.perf_counter() - t0},
                worker=_worker_name(),
                cache_hit=True,
                spec=spec.to_dict())
            if session is not None:
                session.finish(cycles=result.cycles, cache_hit=True)
            return JobOutcome(result=result, manifest=manifest)

    t0 = time.perf_counter()
    kernel = load_or_build_kernel(job.benchmark, job.seed, job.scale,
                                  cache=cache)
    t1 = time.perf_counter()
    sm = build_sm(kernel, spec, sm_config=job.sm_config,
                  dram_latency=get_profile(job.benchmark).dram_latency,
                  bus=session.sim_bus() if session is not None else None,
                  fast_forward=job.fast_forward)
    result = sm.run()
    t2 = time.perf_counter()
    if cache is not None:
        cache.put("results", key, result)
    if session is not None:
        session.finish(cycles=result.cycles)
    manifest = RunManifest(
        benchmark=job.benchmark,
        technique=spec.name,
        seed=job.seed,
        scale=job.scale,
        config_hash=job.manifest_hash,
        cycles=result.cycles,
        instructions=result.stats.instructions_retired,
        wall_seconds={"build_trace": t1 - t0, "simulate": t2 - t1},
        events_published=sm.bus.events_published,
        worker=_worker_name(),
        spec=spec.to_dict())
    return JobOutcome(result=result, manifest=manifest)


# ----------------------------------------------------------------------
# per-SM jobs (one part of a multi-SM GPU run)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SMPartJob:
    """One SM's share of a multi-SM :class:`~repro.sim.gpu.GPU` run.

    Carries the already-split part trace, so workers need no access to
    the parent kernel.  That is not cheap: the fifteen parts of one
    ``gtx480`` launch pickle to about 292 kB (the benchmark's
    ``engine.part_pickle_kb``).  ROADMAP item "Ship identities, not
    payloads" plans to send a trace identity instead.
    """

    part: KernelTrace
    config: object
    sm_config: SMConfig
    dram_latency: Optional[int] = None
    fast_forward: bool = True


def sm_part_label(job: SMPartJob) -> str:
    """Telemetry label for one SM part: ``kernel#smN/technique``.

    The part trace already carries its SM id in the name (the splitter
    suffixes ``#smN``), so live progress distinguishes the fifteen
    parts of one device launch the same way grid cells are told apart.
    """
    return f"{job.part.name}/{as_spec(job.config).name}"


def execute_sm_part(job: SMPartJob) -> SimResult:
    """Run one SM part (top-level, hence picklable).

    Mirrors :func:`execute_job`'s telemetry contract: with worker
    telemetry installed, the part runs inside a job session —
    :class:`~repro.obs.telemetry.JobStarted` on entry, a
    :class:`~repro.obs.telemetry.WorkerEventSummary` on completion —
    so device-scale fan-outs appear in live progress and the run
    ledger like any other batch.  Without telemetry it is exactly the
    bare simulation.
    """
    telemetry = current_worker()
    if telemetry is None:
        return _run_sm_part(job, None)
    with telemetry.profile_job():
        return _run_sm_part(job, telemetry.job_session(sm_part_label(job)))


def _run_sm_part(job: SMPartJob,
                 session: Optional[JobTelemetry]) -> SimResult:
    sm = build_sm(job.part, job.config, sm_config=job.sm_config,
                  dram_latency=job.dram_latency,
                  bus=session.sim_bus() if session is not None else None,
                  fast_forward=job.fast_forward)
    result = sm.run()
    if session is not None:
        session.finish(cycles=result.cycles)
    return result


# Re-exported so callers annotating AdaptiveConfig overrides don't need
# a separate import path through the engine.
__all__ = [
    "AdaptiveConfig",
    "JobOutcome",
    "SMPartJob",
    "SimJob",
    "execute_job",
    "execute_sm_part",
    "sm_part_label",
    "failure_manifest",
    "load_or_build_kernel",
    "outcome_from_report",
    "trace_cache_key",
]
