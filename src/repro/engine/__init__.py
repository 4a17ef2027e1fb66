"""Parallel execution engine: process-pool fan-out, persistent caching.

The experiment grid — (benchmark × technique × seed) cells, and the
per-SM parts of a multi-SM :class:`~repro.sim.gpu.GPU` run — is
embarrassingly parallel: every cell is a pure function of a picklable
job spec.  This package exploits that structure:

* :mod:`repro.engine.faults` — structured job outcomes
  (:class:`JobReport`, :class:`JobStatus`) and the retry/timeout
  :class:`FaultPolicy` that keeps one bad cell from killing a sweep;
* :mod:`repro.engine.jobs` — frozen job specs (:class:`JobRequest`,
  whose run key names a run everywhere, and :class:`SMPartJob`) and
  the top-level worker functions that execute them, including the
  on-disk kernel-trace memoisation;
* :mod:`repro.engine.cache` — the persistent ``.repro-cache/`` store,
  addressed by run keys;
* :mod:`repro.engine.pool` — :class:`ParallelEngine`, the
  ``ProcessPoolExecutor`` wrapper that fans jobs out and collects
  results in submission order, so aggregated output is bit-identical
  to a serial run.  Hand it an
  :class:`~repro.obs.telemetry.EngineTelemetry` and the whole batch
  streams onto the parent event bus (with per-batch run ledgers under
  ``<cache_dir>/ledger/``).

The harness (:mod:`repro.harness.experiment`) and the CLI's
``--jobs`` / ``--no-cache`` flags are the user-facing surface.
"""

from repro.engine.cache import RunCache
from repro.engine.faults import (
    FaultPolicy,
    JobFailedError,
    JobReport,
    JobStatus,
)
from repro.engine.jobs import (
    JobOutcome,
    JobRequest,
    SMPartJob,
    execute_job,
    execute_sm_part,
    failure_manifest,
    load_or_build_kernel,
    outcome_from_report,
)
from repro.engine.pool import ParallelEngine

__all__ = [
    "FaultPolicy",
    "JobFailedError",
    "JobOutcome",
    "JobReport",
    "JobRequest",
    "JobStatus",
    "ParallelEngine",
    "RunCache",
    "SMPartJob",
    "execute_job",
    "execute_sm_part",
    "failure_manifest",
    "load_or_build_kernel",
    "outcome_from_report",
]
