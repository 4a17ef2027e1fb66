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

import copy
import multiprocessing
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from repro.core.adaptive import AdaptiveConfig
from repro.core.spec import TechniqueSpec, as_spec, unknown_name_error
from repro.core.techniques import build_sm
from repro.engine.cache import RESULT_SCHEMA, TRACE_SCHEMA, RunCache
from repro.engine.faults import JobReport, JobStatus
from repro.isa.trace import KernelTrace
from repro.isa.tracegen import TraceGenerator
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.telemetry import JobTelemetry, current_worker, job_label
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult
from repro.workloads.registry import build_kernel, scaled_spec
from repro.workloads.specs import BENCHMARK_NAMES, get_profile


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
            f"{config_hash(spec, [seed, scale, TRACE_SCHEMA])}")


def load_or_build_kernel(benchmark: str, seed: int, scale: float,
                         cache: Optional[RunCache] = None) -> KernelTrace:
    """Memoised :func:`repro.workloads.registry.build_kernel`.

    Without a cache this is ``build_kernel`` itself, whose in-process
    memo hands every technique of one benchmark the same trace.  With a
    cache, the generated trace is stored on disk so parallel workers
    (and later sessions) deserialise instead of regenerating — trace
    generation is a visible fraction of small-run wall time.  A disk
    miss is not kept in process, so a long-lived server holds no trace
    between jobs; the 18 full-scale traces, as packed columns, would
    take about 2 MB if it did.
    """
    if cache is None:
        return build_kernel(benchmark, seed=seed, scale=scale)
    key = trace_cache_key(benchmark, seed, scale)
    kernel = cache.get("traces", key)
    if kernel is None:
        spec = scaled_spec(get_profile(benchmark).spec, scale)
        kernel = TraceGenerator(spec, seed=seed).generate()
        cache.put("traces", key, kernel)
    return kernel


# ----------------------------------------------------------------------
# whole-run jobs (one experiment-grid cell)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JobRequest:
    """One (benchmark × technique) simulation: the frozen run identity.

    ``technique`` is anything :func:`repro.core.spec.as_spec` resolves —
    a :class:`~repro.core.spec.TechniqueSpec`, a registered technique
    name or a :class:`~repro.core.techniques.Technique` member.  It is
    kept exactly as given (callers may inspect what they submitted); the
    :attr:`spec` property is the resolved spec every key uses, so an
    enum member, its name string and an equal hand-built spec are one
    run.

    ``fast_forward=None`` (the default) defers to the executing
    engine's configured default (off for the service's default
    in-process engine, which runs the serial oracle).

    An unknown ``benchmark`` or technique name raises ValueError (with
    a did-you-mean hint), and a ``technique`` of no accepted form raises
    TypeError, when the request is built: a run key needs both the
    profile and the spec.

    The request is frozen, so its spec and :meth:`key` are derived once
    per instance and travel with it (into pool workers too).  ``scale``
    is stored as a float: ``scale=1`` and ``scale=1.0`` are one run.
    """

    benchmark: str
    technique: object
    #: One shared default instance, so its canonical encoding is memoised
    #: across requests.
    sm_config: SMConfig = SMConfig()
    seed: int = 0
    scale: float = 1.0
    fast_forward: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.benchmark not in BENCHMARK_NAMES:
            raise unknown_name_error("benchmark", self.benchmark,
                                     BENCHMARK_NAMES)
        object.__setattr__(self, "scale", float(self.scale))
        self.spec  # resolve (and memoise) the technique now

    @cached_property
    def spec(self) -> TechniqueSpec:
        """The resolved technique spec this request runs."""
        return as_spec(self.technique)

    def label(self) -> str:
        """Display label, ``benchmark/technique/sSEED``."""
        return job_label(self)

    def resolve(self, fast_forward: bool) -> "JobRequest":
        """This request, with ``fast_forward=None`` resolved.

        The copy shares the derived spec and run keys, so resolving
        never re-derives the identity.
        """
        if self.fast_forward is not None:
            return self
        job = copy.copy(self)  # the memos come along; no __post_init__
        object.__setattr__(job, "fast_forward", fast_forward)
        return job

    def key(self, fast_forward: bool) -> str:
        """The run key, with fast-forward resolved.

        ``<benchmark>-<technique>-s<seed>-<hash>``: one string names the
        run as the result-cache filename, the manifest's ``run_key``,
        the service's job id and dedupe key, and the ledger job line.
        The hash covers every input through canonical JSON: the scaled
        workload spec, the spec's canonical hash, the ``SMConfig``,
        seed, scale, DRAM latency, fast-forward and the result schema.
        ``fast_forward`` is part of the key even though results are
        bit-identical by contract — a fast-forward bug then cannot
        poison serially-produced entries (or the other way round).
        """
        keys = self.__dict__.setdefault("_run_keys", {})
        key = keys.get(fast_forward)
        if key is None:
            spec = self.spec
            profile = get_profile(self.benchmark)
            # The scalars go in as one list: one encoding, not six.
            digest = config_hash(
                scaled_spec(profile.spec, self.scale), self.sm_config,
                [spec.spec_hash(), self.seed, self.scale,
                 profile.dram_latency, fast_forward, RESULT_SCHEMA])
            key = keys[fast_forward] = \
                f"{self.benchmark}-{spec.name}-s{self.seed}-{digest}"
        return key

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON form for the HTTP API (SM config stays server-side)."""
        doc: Dict[str, object] = {
            "benchmark": self.benchmark,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "scale": self.scale,
        }
        if self.fast_forward is not None:
            doc["fast_forward"] = self.fast_forward
        return doc

    @classmethod
    def from_dict(cls, doc: object) -> "JobRequest":
        """Parse and fully validate the JSON form.

        ``technique`` (a registered name) and ``spec`` (a full
        :meth:`TechniqueSpec.to_dict` document) are alternatives —
        exactly one must be present.  Every schema violation raises
        ValueError with the offending key named, never a KeyError.
        """
        if not isinstance(doc, dict):
            raise ValueError("job request must be a JSON object, got "
                             f"{type(doc).__name__}")
        allowed = {"benchmark", "technique", "spec", "seed", "scale",
                   "fast_forward"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ValueError(f"job request has unknown key(s) {unknown}; "
                             f"allowed: {sorted(allowed)}")
        benchmark = doc.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise ValueError("'benchmark' must be a non-empty string")
        has_name = "technique" in doc
        has_spec = "spec" in doc
        if has_name == has_spec:
            raise ValueError("job request needs exactly one of "
                             "'technique' (a registered name) or 'spec' "
                             "(a full technique-spec object)")
        if has_name:
            name = doc["technique"]
            if not isinstance(name, str):
                raise ValueError("'technique' must be a string name")
            technique: object = as_spec(name)
        else:
            technique = TechniqueSpec.from_dict(doc["spec"])
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("'seed' must be an integer")
        scale = doc.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ValueError("'scale' must be a number")
        fast_forward = doc.get("fast_forward")
        if fast_forward is not None and not isinstance(fast_forward, bool):
            raise ValueError("'fast_forward' must be a boolean or absent")
        return cls(benchmark=benchmark, technique=technique,
                   seed=seed, scale=float(scale),
                   fast_forward=fast_forward)


@dataclass
class JobOutcome:
    """What the engine returns for one :class:`JobRequest`.

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


def job_manifest(job: JobRequest, result: Optional[SimResult],
                 **fields: object) -> RunManifest:
    """Provenance record of one job, named by its run key.

    ``job.fast_forward`` must be resolved.  A job that produced no
    result records zero cycles and instructions.
    """
    spec = job.spec
    return RunManifest(
        benchmark=job.benchmark,
        technique=spec.name,
        seed=job.seed,
        scale=job.scale,
        run_key=job.key(job.fast_forward),
        cycles=result.cycles if result is not None else 0,
        instructions=(result.stats.instructions_retired
                      if result is not None else 0),
        spec=spec.to_dict(),
        **fields)


def failure_manifest(job: JobRequest, report: JobReport) -> RunManifest:
    """Provenance record for a cell that produced no result.

    Pins the failed run to its exact configuration — the same run key
    a successful manifest carries — so a sweep's manifest list records
    exactly which cells failed, how often they were attempted, and why.
    """
    return job_manifest(job, None, status=report.status.value,
                        error=report.error,
                        attempts=max(report.attempts, 0))


def outcome_from_report(job: JobRequest, report: JobReport) -> JobOutcome:
    """Fold one :class:`JobReport` into the job outcome shape."""
    if report.ok:
        outcome = report.value
        outcome.attempts = report.attempts
        outcome.manifest.attempts = report.attempts
        return outcome
    return JobOutcome(result=None, manifest=failure_manifest(job, report),
                      status=report.status, error=report.error,
                      attempts=report.attempts)


def execute_job(job: JobRequest,
                cache_dir: Optional[str] = None,
                cache_max_bytes: Optional[int] = None) -> JobOutcome:
    """Execute one grid cell (top-level, hence picklable).

    A job with ``fast_forward=None`` runs fast-forward, the engine's
    default (the engine resolves it to its own setting first).  Checks
    the result cache first; on a miss, builds the (trace-cached)
    kernel, wires the SM and runs it, then stores the result.  Either
    way a :class:`RunManifest` records what happened — cache hits carry
    ``cache_hit=True`` and a ``cache_load`` wall phase, fresh runs the
    usual ``build_trace`` / ``simulate`` phases — and ``worker`` names
    the executing process.

    When the process carries worker telemetry (installed by the pool
    initializer, or the engine's inline path), the job runs inside a
    telemetry session: :class:`~repro.obs.telemetry.JobStarted` goes
    out immediately, cache hits/misses stream as they happen, and a
    compact :class:`~repro.obs.telemetry.WorkerEventSummary`, built
    from the finished result, ships when the job completes.  Session
    events carry the job's run key.  The SM runs on a disabled bus
    either way, so observing a job never changes how it executes.

    The cache is opened with the janitor off: sweeping orphaned temp
    files is the engine's once-per-batch job
    (:meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs`), not
    something every job in every worker should re-pay.
    """
    job = job.resolve(True)
    telemetry = current_worker()
    if telemetry is None:
        return _run_cell(job, cache_dir, cache_max_bytes, None)
    with telemetry.profile_job():
        return _run_cell(job, cache_dir, cache_max_bytes,
                         telemetry.job_session(
                             job_label(job), job.key(job.fast_forward)))


def _run_cell(job: JobRequest, cache_dir: Optional[str],
              cache_max_bytes: Optional[int],
              session: Optional[JobTelemetry]) -> JobOutcome:
    cache = RunCache(cache_dir, max_bytes=cache_max_bytes,
                     janitor=False,
                     listener=session.emit if session is not None
                     else None) if cache_dir else None
    key = job.key(job.fast_forward)

    if cache is not None:
        t0 = time.perf_counter()
        result = cache.get("results", key)
        if result is not None:
            manifest = job_manifest(
                job, result,
                wall_seconds={"cache_load": time.perf_counter() - t0},
                worker=_worker_name(), cache_hit=True)
            if session is not None:
                session.finish(result, cache_hit=True)
            return JobOutcome(result=result, manifest=manifest)

    t0 = time.perf_counter()
    kernel = load_or_build_kernel(job.benchmark, job.seed, job.scale,
                                  cache=cache)
    t1 = time.perf_counter()
    result = build_sm(kernel, job.spec, sm_config=job.sm_config,
                      dram_latency=get_profile(job.benchmark).dram_latency,
                      fast_forward=job.fast_forward).run()
    t2 = time.perf_counter()
    if cache is not None:
        cache.put("results", key, result)
    if session is not None:
        session.finish(result)
    manifest = job_manifest(
        job, result, wall_seconds={"build_trace": t1 - t0,
                                   "simulate": t2 - t1},
        worker=_worker_name())
    return JobOutcome(result=result, manifest=manifest)


# ----------------------------------------------------------------------
# per-SM jobs (one part of a multi-SM GPU run)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SMPartJob:
    """One SM's share of a multi-SM :class:`~repro.sim.gpu.GPU` run.

    Carries the already-split part trace, so workers need no access to
    the parent kernel.  The part's warps pickle as their packed trace
    columns: the fifteen parts of one full-scale ``gtx480`` hotspot
    launch pickle to about 94 kB (the benchmark's
    ``engine.part_pickle_kb``), and each worker decodes a warp's
    instructions when the warp launches.
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
    :class:`~repro.obs.telemetry.WorkerEventSummary` built from the
    part's result on completion — so device-scale fan-outs appear in
    live progress and the run ledger like any other batch.  The
    simulation itself is the same bare run either way.
    """
    telemetry = current_worker()
    if telemetry is None:
        return _run_sm_part(job, None)
    with telemetry.profile_job():
        return _run_sm_part(job, telemetry.job_session(sm_part_label(job)))


def _run_sm_part(job: SMPartJob,
                 session: Optional[JobTelemetry]) -> SimResult:
    result = build_sm(job.part, job.config, sm_config=job.sm_config,
                      dram_latency=job.dram_latency,
                      fast_forward=job.fast_forward).run()
    if session is not None:
        session.finish(result)
    return result


# Re-exported so callers annotating AdaptiveConfig overrides don't need
# a separate import path through the engine.
__all__ = [
    "AdaptiveConfig",
    "JobOutcome",
    "JobRequest",
    "SMPartJob",
    "execute_job",
    "execute_sm_part",
    "sm_part_label",
    "failure_manifest",
    "job_manifest",
    "load_or_build_kernel",
    "outcome_from_report",
    "trace_cache_key",
]
