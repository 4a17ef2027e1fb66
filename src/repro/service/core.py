"""The synchronous simulation-service core.

One object — :class:`SimulationService` — owns the whole run path that
was previously duplicated across the experiment runner, the sweeps, the
replication harness and the CLI:

* **requests, not call sites**: a
  :class:`~repro.engine.jobs.JobRequest` is the frozen,
  wire-serialisable identity of one simulation (benchmark, resolved
  technique spec, SM config, seed, scale, fast-forward choice);
* **single-flight dedupe**: concurrent or repeated submissions of the
  same run share one :class:`JobTicket` — one engine execution, N
  responses.  The ticket table is keyed by the run key
  (:meth:`~repro.engine.jobs.JobRequest.key`), which is also the
  ticket's ``job_id``, the cache filename and the manifest's
  ``run_key``, so an enum member, its name string and an equal
  hand-built spec all land on one ticket;
* **structured lifecycle**: tickets move ``queued`` → ``running`` →
  a terminal :class:`JobState` mapped from the engine's
  :class:`~repro.engine.faults.JobStatus`, with a replayable per-job
  :class:`~repro.obs.subscribe.Feed` any number of consumers can
  stream (a consumer disconnecting never perturbs the job);
* **one execution path**: every job goes through
  :meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs`.  Without an
  engine the service builds an in-process one with no cache, no ledger
  and fast-forward off, so the default service runs the serial oracle
  and keeps nothing on disk.

The service is synchronous and thread-safe; the asyncio front end in
:mod:`repro.service.api` is a thin shell over it.  The engine itself is
*not* thread-safe (per-batch telemetry state), so all engine access is
serialised behind one lock — concurrency buys dedupe and admission, not
parallel batches; the engine's own worker pool provides the fan-out.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.digest import result_digest
from repro.core.spec import TechniqueSpec
from repro.engine.faults import (
    JobFailedError,
    JobReport,
    JobStatus,
    last_error_line,
)
from repro.engine.jobs import JobOutcome, JobRequest, outcome_from_report
from repro.engine.pool import ParallelEngine
from repro.obs.bus import EventBus
# ``build_sm`` and ``config_hash`` are not called here:
# perfbench/tracing.py wraps both on this module to time SM wiring and
# run identity.
from repro.core.techniques import build_sm  # noqa: F401
from repro.obs.manifest import RunManifest, config_hash  # noqa: F401
from repro.obs.subscribe import Feed
from repro.obs.telemetry import (
    EngineEvent,
    ServiceJobAccepted,
    ServiceJobStateChanged,
    job_label,
)
from repro.sim.sm import SimResult


class JobState(str, Enum):
    """Lifecycle of one service job.

    The terminal states mirror :class:`~repro.engine.faults.JobStatus`
    value-for-value, so ``JobState(outcome.status.value)`` is the whole
    mapping.
    """

    QUEUED = "queued"
    RUNNING = "running"
    OK = "ok"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True for settled states (anything but queued/running)."""
        return self not in (JobState.QUEUED, JobState.RUNNING)


class JobTicket:
    """One deduped unit of work and everything observable about it.

    Tickets are created by :meth:`SimulationService.submit` and shared
    by every submission of the same run.  ``submissions`` counts
    how many times the ticket was (re-)submitted — the observable proof
    of single-flight dedupe.  ``feed`` carries the job's event stream
    (state changes, forwarded engine telemetry, the final summary) and
    closes when the ticket settles.  ``job`` is the submitted request
    with fast-forward resolved, which the engine runs; ``job_id`` is
    its run key.
    """

    def __init__(self, job: JobRequest) -> None:
        self.job = job
        self.job_id = job.key(job.fast_forward)
        self.label = job.label()
        self.state = JobState.QUEUED
        self.outcome: Optional[JobOutcome] = None
        self.submissions = 1
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.feed = Feed()
        self._done = threading.Event()
        self._run_lock = threading.Lock()
        self._digest: Optional[str] = None
        self._digest_lock = threading.Lock()

    @property
    def done(self) -> bool:
        """True once the ticket has settled (without blocking)."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket settles; False on timeout."""
        return self._done.wait(timeout)

    def result(self) -> SimResult:
        """The settled result.

        A terminally failed job raises
        :class:`~repro.engine.faults.JobFailedError`.  Call only on a
        done ticket (use :meth:`wait` first).
        """
        if not self._done.is_set():
            raise RuntimeError(f"job {self.job_id} has not settled yet")
        assert self.outcome is not None
        if not self.outcome.ok:
            raise_for_outcome(self.job.benchmark, self.job.spec,
                              self.outcome)
        return self.outcome.result

    def digest(self) -> Optional[str]:
        """sha256 result digest (lazy — canonicalisation isn't free)."""
        outcome = self.outcome
        if outcome is None or outcome.result is None:
            return None
        with self._digest_lock:
            if self._digest is None:
                self._digest = result_digest(outcome.result)
            return self._digest

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable status view (the HTTP status document)."""
        return {
            "job_id": self.job_id,
            "label": self.label,
            "state": self.state.value,
            "benchmark": self.job.benchmark,
            "technique": self.job.spec.name,
            "spec_hash": self.job.spec.spec_hash(),
            "seed": self.job.seed,
            "scale": self.job.scale,
            "fast_forward": self.job.fast_forward,
            "submissions": self.submissions,
            "deduped": self.submissions > 1,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": (self.outcome.attempts
                         if self.outcome is not None else 0),
            "error": (last_error_line(self.outcome.error)
                      if self.outcome is not None else ""),
        }


def raise_for_outcome(benchmark: str, spec: TechniqueSpec,
                      outcome: JobOutcome) -> None:
    """Raise the canonical :class:`JobFailedError` for a failed cell.

    Moved verbatim from ``ExperimentRunner._raise_failure`` so the
    runner, the service and the CLI all phrase failures identically.
    """
    reason = last_error_line(outcome.error) or outcome.status.value
    raise JobFailedError(
        f"{benchmark}/{spec.name} {outcome.status.value} "
        f"after {outcome.attempts} attempt(s): {reason}",
        status=outcome.status, error=outcome.error)


class SimulationService:
    """Spec-addressed, single-flight simulation execution.

    Args:
        engine: Optional :class:`~repro.engine.pool.ParallelEngine`
            that runs every job.  Omitted, the service runs jobs in
            process on ``ParallelEngine(jobs=1, cache_dir=None,
            fast_forward=False, ledger=False)``: the serial oracle,
            uncached and unledgered.
        worker: Optional override for the engine-side executing
            callable, passed through to
            :meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs` —
            the fault-injection seam the test-suite uses.

    Thread-safety: the ticket table (keyed by run key) has its own
    lock; all engine access is serialised behind ``_exec_lock`` (the
    engine keeps per-batch telemetry state and must never see two
    batches at once).
    """

    def __init__(self, engine: Optional[ParallelEngine] = None,
                 worker: Optional[Callable[[JobRequest], JobOutcome]]
                 = None):
        if engine is None:
            engine = ParallelEngine(jobs=1, cache_dir=None,
                                    fast_forward=False, ledger=False)
        self.engine = engine
        self.worker = worker
        self._lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._tickets: Dict[str, JobTicket] = {}
        #: Provenance records, one per actual execution (not per
        #: submission), in settle order.
        self.manifests: List[RunManifest] = []
        self._telemetry_bus = self._find_telemetry_bus()
        if self._telemetry_bus is not None:
            self._telemetry_bus.subscribe(self._on_engine_event)

    # ------------------------------------------------------------------
    # submission and lookup
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> Tuple[JobTicket, bool]:
        """Register one request; returns ``(ticket, created)``.

        ``created`` is True when this submission created the ticket
        (the caller is then responsible for driving :meth:`execute`);
        False marks a deduped submission sharing an existing ticket.
        """
        job = request.resolve(self.engine.fast_forward)
        key = job.key(job.fast_forward)
        with self._lock:
            ticket = self._tickets.get(key)
            if ticket is not None:
                ticket.submissions += 1
                created = False
            else:
                ticket = self._tickets[key] = JobTicket(job)
                created = True
        self._publish(ServiceJobAccepted.now(
            job_id=ticket.job_id, label=ticket.label,
            spec_hash=job.spec.spec_hash(), deduped=not created))
        if created:
            ticket.feed.append(self._state_record(ticket))
        return ticket, created

    def get(self, job_id: str) -> Optional[JobTicket]:
        """The ticket for one job id, or None."""
        with self._lock:
            return self._tickets.get(job_id)

    def tickets(self) -> List[JobTicket]:
        """Every known ticket, oldest first."""
        with self._lock:
            return sorted(self._tickets.values(),
                          key=lambda t: t.created_at)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, ticket: JobTicket) -> JobOutcome:
        """Drive one ticket to a terminal state (idempotent).

        The first caller in executes; concurrent callers block on the
        per-ticket lock and return the shared settled outcome.  A
        failure settles the ticket too and is memoised: re-reading a
        failed cell never silently re-simulates.
        """
        if not ticket._done.is_set():
            with ticket._run_lock, self._exec_lock:
                if not ticket._done.is_set():
                    self._run_batch([ticket])
        assert ticket.outcome is not None
        return ticket.outcome

    def run(self, request: JobRequest) -> SimResult:
        """Submit + execute + unwrap: the whole classic run() contract.

        Deduped against every other submission; raises
        :class:`JobFailedError` for terminally failed cells.
        """
        ticket, _ = self.submit(request)
        self.execute(ticket)
        return ticket.result()

    def prefetch(self, requests: Sequence[JobRequest]) -> List[JobTicket]:
        """Fan a batch through the engine as *one* ledgered batch.

        Already-settled and in-flight cells are skipped (their tickets
        are still returned, in request order, duplicates collapsed).
        """
        tickets: List[JobTicket] = []
        owned: List[JobTicket] = []
        seen = set()
        for request in requests:
            ticket, created = self.submit(request)
            if ticket.job_id in seen:
                continue
            seen.add(ticket.job_id)
            tickets.append(ticket)
            if created:
                owned.append(ticket)
        if not owned:
            return tickets
        with self._exec_lock:
            # Re-check under the lock: a concurrent execute() may have
            # settled (or be about to settle) some of our tickets.
            batch = [t for t in owned
                     if not t.done and t._run_lock.acquire(blocking=False)]
            try:
                if batch:
                    self._run_batch(batch)
            finally:
                for ticket in batch:
                    ticket._run_lock.release()
        return tickets

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every known ticket to settle; False on timeout."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for ticket in self.tickets():
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                return False
            if not ticket.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------------
    # execution and settlement
    # ------------------------------------------------------------------

    def _run_batch(self, batch: List[JobTicket]) -> None:
        """Run tickets as one engine batch and settle every one.

        Must be called under ``_exec_lock`` and each ticket's
        ``_run_lock``.  An exception out of the engine itself (not a
        failed cell, which comes back as an outcome) settles every
        ticket of the batch as failed before it propagates, so no
        waiter is left on a ticket nobody will run.
        """
        for ticket in batch:
            self._set_state(ticket, JobState.RUNNING)
            ticket.started_at = time.time()
        jobs = [ticket.job for ticket in batch]
        try:
            outcomes = self.engine.run_sim_jobs(jobs, worker=self.worker)
        except BaseException as exc:
            error = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            for index, ticket in enumerate(batch):
                self._settle(ticket, outcome_from_report(
                    ticket.job, JobReport(index, JobStatus.FAILED,
                                          error=error)))
            raise
        for ticket, outcome in zip(batch, outcomes):
            self._settle(ticket, outcome)

    def _settle(self, ticket: JobTicket, outcome: JobOutcome) -> None:
        ticket.outcome = outcome
        ticket.finished_at = time.time()
        with self._lock:
            self.manifests.append(outcome.manifest)
        self._set_state(ticket, JobState(outcome.status.value))
        ticket.feed.append({
            "record": "done",
            "job_id": ticket.job_id,
            "state": ticket.state.value,
            "attempts": outcome.attempts,
            "cycles": outcome.manifest.cycles,
            "cache_hit": outcome.manifest.cache_hit,
            "error": last_error_line(outcome.error),
        })
        ticket.feed.close()
        ticket._done.set()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def _state_record(self, ticket: JobTicket) -> Dict[str, object]:
        return {"record": "state", "job_id": ticket.job_id,
                "label": ticket.label, "state": ticket.state.value,
                "ts": time.time()}

    def _set_state(self, ticket: JobTicket, state: JobState) -> None:
        ticket.state = state
        if not ticket.feed.closed:
            ticket.feed.append(self._state_record(ticket))
        self._publish(ServiceJobStateChanged.now(
            job_id=ticket.job_id, label=ticket.label,
            state=state.value))

    def _find_telemetry_bus(self) -> Optional[EventBus]:
        telemetry = getattr(self.engine, "telemetry", None)
        bus = getattr(telemetry, "bus", None)
        return bus if getattr(bus, "enabled", False) else None

    def _publish(self, event: EngineEvent) -> None:
        if self._telemetry_bus is not None:
            self._telemetry_bus.publish(event)

    def _on_engine_event(self, event: object) -> None:
        """Forward one engine-telemetry event into its ticket's feed.

        Job events carry the job's ``run_key``, which is the ticket's
        ``job_id``; the ticket gets the event appended to its feed in
        JSON-friendly form until it settles.  Events without a run key
        (cache, pool and service events) are skipped.
        """
        run_key = getattr(event, "run_key", "")
        if not run_key:
            return
        with self._lock:
            ticket = self._tickets.get(run_key)
        if ticket is None or ticket.feed.closed:
            return
        try:
            payload = dataclasses.asdict(event)
        except TypeError:  # pragma: no cover - non-dataclass event
            payload = {"repr": repr(event)}
        payload.pop("cycle", None)
        try:
            ticket.feed.append({"record": "engine_event",
                                "event": type(event).__name__, **payload})
        except ValueError:  # feed raced closed; the job has settled
            pass

    def close(self) -> None:
        """Detach from the engine telemetry bus (idempotent)."""
        if self._telemetry_bus is not None:
            self._telemetry_bus.unsubscribe(self._on_engine_event)
            self._telemetry_bus = None

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            n = len(self._tickets)
        return (f"SimulationService(engine={self.engine!r}, "
                f"tickets={n})")


__all__ = [
    "JobRequest",
    "JobState",
    "JobTicket",
    "SimulationService",
    "job_label",
    "raise_for_outcome",
]
