"""Simulation-as-a-service: one run path behind one core object.

* :mod:`repro.service.core` — the synchronous
  :class:`SimulationService`: single-flight dedupe of
  :class:`~repro.engine.jobs.JobRequest`\\ s onto :class:`JobTicket`\\ s
  named by their run key, structured
  :class:`JobState` lifecycle, execution on one
  :class:`~repro.engine.pool.ParallelEngine`, replayable per-job event
  feeds.  The experiment runner, the sweeps, the
  replication harness and the CLI all run through it.
* :mod:`repro.service.api` — the thin asyncio JSON-over-HTTP front end
  (``repro serve``).
* :mod:`repro.service.client` — the stdlib blocking client
  (``repro submit``, CI smoke, examples).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.core import (
    JobRequest,
    JobState,
    JobTicket,
    SimulationService,
    raise_for_outcome,
)

__all__ = [
    "JobRequest",
    "JobState",
    "JobTicket",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "raise_for_outcome",
]
