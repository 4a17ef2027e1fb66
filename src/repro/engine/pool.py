"""Process-pool fan-out with deterministic, submission-order collection.

:class:`ParallelEngine` is the one object the harness and CLI touch: it
owns the worker pool (created lazily, reused across batches, rebuilt
when a worker kills it), the cache location, the fast-forward default
and the :class:`~repro.engine.faults.FaultPolicy` for the jobs it runs.
Results are collected in submission order — worker scheduling cannot
reorder the aggregate — and each simulation is itself a deterministic
function of its job spec, so a ``--jobs 4`` run is bit-identical to
``--jobs 1`` and a retried job is bit-identical to a first-try job.

Fault tolerance (:meth:`ParallelEngine.map_outcomes`):

* a worker exception marks *that job* ``failed`` (with its traceback)
  and the rest of the batch completes;
* a per-job timeout kills the hung worker's pool, rebuilds it, and
  resubmits the unfinished tail — each job's budget is anchored to
  the moment it is observed executing, never to wave submission, so
  only jobs that actually ran past the budget are charged and a job
  queued behind a busy pool is never taxed for its siblings' time;
* a hard worker death (``BrokenProcessPool``) also rebuilds the pool
  and resubmits the tail; because a crash cannot be attributed while
  several jobs share the pool, the engine switches to one-job waves
  until the culprit crashes alone and is charged (or every suspect
  has been exonerated by a clean solo run), then resumes parallel
  waves — one crash never serialises the rest of a large sweep;
* failed and timed-out jobs are retried up to
  ``FaultPolicy.max_retries`` times with bounded exponential backoff.

:meth:`ParallelEngine.map` keeps the strict raise-on-error contract for
callers that want it, but no longer strands siblings: pending futures
are cancelled and still-running ones awaited before the first error
(in submission order) is re-raised.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.engine.cache import DEFAULT_CACHE_DIR, RunCache
from repro.engine.faults import (
    FaultPolicy,
    JobReport,
    JobStatus,
    last_error_line,
)
from repro.engine.jobs import (
    JobOutcome,
    JobRequest,
    execute_job,
    outcome_from_report,
)
from repro.obs.ledger import LedgerWriter, ledger_dir_for, new_run_id
from repro.obs.telemetry import (
    EngineTelemetry,
    JobFinished,
    JobQueued,
    JobRetry,
    PoolRebuilt,
    inline_worker,
    job_label,
)

T = TypeVar("T")
R = TypeVar("R")

#: Poll interval (seconds) while watching a wave for per-job timeout
#: expiry; a job's effective budget is ``job_timeout`` plus at most one
#: poll of slack.
_TIMEOUT_POLL = 0.05


def _format_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


def _ledger_record(index: int, job: JobRequest,
                   outcome: JobOutcome) -> Dict[str, object]:
    """One run-ledger job line, derived from the settled outcome."""
    manifest = outcome.manifest
    return dict(
        index=index,
        run_key=job.key(job.fast_forward),
        benchmark=manifest.benchmark,
        technique=manifest.technique,
        spec_hash=job.spec.spec_hash(),
        seed=manifest.seed,
        scale=manifest.scale,
        status=outcome.status.value,
        attempts=outcome.attempts,
        worker=manifest.worker,
        cache_hit=manifest.cache_hit,
        cycles=manifest.cycles,
        instructions=manifest.instructions,
        wall_seconds=round(manifest.total_seconds, 6),
        error=last_error_line(outcome.error),
    )


class ParallelEngine:
    """Fans picklable jobs over a process pool; inline when jobs <= 1.

    Args:
        jobs: Worker process count.  1 (default) executes inline in the
            calling process — same code path, no pool, no pickling.
        cache_dir: Result/trace cache root, or None to disable caching.
            Workers open their own :class:`RunCache` on this path (the
            cache is just a directory of immutable files, so no
            cross-process coordination is needed).
        fast_forward: Whether jobs built by this engine's helpers run
            with the idle-cycle fast-forward (bit-identical either way).
        policy: Default :class:`FaultPolicy` for batches run through
            this engine (no retries, no timeout unless configured).
        cache_max_bytes: Optional size cap for the persistent cache;
            workers evict least-recently-used entries past it.
        telemetry: Optional :class:`~repro.obs.telemetry
            .EngineTelemetry` — when given (and its bus is enabled),
            the engine publishes job/cache/pool events onto its bus,
            workers relay digested sim events back to it, and worker
            profiling dumps go to its ``profile_dir``.  None (default)
            keeps every hook a single ``is None`` check.
        ledger: ``True`` (default) writes one run-ledger JSONL per
            :meth:`run_sim_jobs` batch under ``<cache_dir>/ledger/``
            (silently off without a cache dir); a path writes ledgers
            there instead; ``False`` disables them.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                 fast_forward: bool = True,
                 policy: Optional[FaultPolicy] = None,
                 cache_max_bytes: Optional[int] = None,
                 telemetry: Optional[EngineTelemetry] = None,
                 ledger: Union[bool, str, Path] = True) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.fast_forward = fast_forward
        self.policy = policy if policy is not None else FaultPolicy()
        self.cache_max_bytes = cache_max_bytes
        self.telemetry = telemetry
        self.ledger = ledger
        #: Extra key/values merged into the next ledger's ``end``
        #: record (e.g. the ``--profile`` report path).
        self.ledger_meta: Dict[str, object] = {}
        #: Run id of the most recent :meth:`run_sim_jobs` ledger.
        self.last_run_id: Optional[str] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._cache_swept = False
        #: Per-batch state: the active telemetry (None when disabled)
        #: and the submission-order labels and run keys of the batch.
        self._tel: Optional[EngineTelemetry] = None
        self._labels: List[str] = []
        self._keys: List[str] = []

    # ------------------------------------------------------------------
    # generic mapping
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, results in submission order.

        The strict path: the first failure (in submission order) is
        re-raised after the rest of the batch has been cancelled or
        awaited — no future is left running detached.  Honours the
        engine's retry/timeout policy; ``fn`` must be picklable (a
        top-level function or a ``partial`` of one) when ``jobs > 1``.
        """
        reports = self.map_outcomes(
            fn, items,
            policy=FaultPolicy(max_retries=self.policy.max_retries,
                               job_timeout=self.policy.job_timeout,
                               backoff_base=self.policy.backoff_base,
                               backoff_cap=self.policy.backoff_cap,
                               fail_fast=True))
        for report in reports:
            if report.status in (JobStatus.FAILED, JobStatus.TIMED_OUT):
                raise report.to_exception()
        return [report.value for report in reports]

    def map_outcomes(self, fn: Callable[[T], R], items: Sequence[T],
                     policy: Optional[FaultPolicy] = None,
                     ) -> List[JobReport]:
        """Apply ``fn`` to every item, returning structured outcomes.

        Never raises out of the middle of a batch: every item gets a
        :class:`JobReport` in submission order, ``ok`` or not.  Worker
        exceptions, hung workers (``policy.job_timeout``) and hard
        worker deaths are contained to the jobs they hit; everything
        else completes.  Retries re-execute the same pure function, so
        a retried result is bit-identical to a first-try result.
        """
        policy = policy if policy is not None else self.policy
        items = list(items)
        if not items:
            return []
        self._begin_batch(items)
        try:
            pooled = self.jobs > 1 and (len(items) > 1
                                        or policy.job_timeout is not None)
            if not pooled:
                if self.telemetry is not None:
                    with inline_worker(self.telemetry):
                        return self._inline_outcomes(fn, items, policy)
                return self._inline_outcomes(fn, items, policy)
            reports = self._pooled_outcomes(fn, items, policy)
            if self._tel is not None:
                # Workers wrote their records before returning, so one
                # drain publishes everything this batch produced.
                self._tel.flush()
            return reports
        finally:
            self._tel = None
            self._labels = []
            self._keys = []

    def _begin_batch(self, items: Sequence) -> None:
        """Arm per-batch telemetry state and announce the queue."""
        telemetry = self.telemetry
        self._tel = telemetry if (telemetry is not None
                                  and telemetry.enabled) else None
        if self._tel is None:
            return
        self._labels = [job_label(item, i)
                        for i, item in enumerate(items)]
        for index, item in enumerate(items):
            spec_hash = run_key = ""
            if isinstance(item, JobRequest):
                try:
                    spec_hash = item.spec.spec_hash()
                    run_key = item.key(item.fast_forward)
                except Exception:  # unresolvable job: it fails on
                    pass  # execution; don't die announcing it
            self._keys.append(run_key)
            self._tel.emit(JobQueued.now(label=self._labels[index],
                                         run_key=run_key, index=index,
                                         spec_hash=spec_hash))

    def _emit_retry(self, index: int, attempt: int, reason: str) -> None:
        if self._tel is not None:
            self._tel.emit(JobRetry.now(label=self._labels[index],
                                        run_key=self._keys[index],
                                        index=index, attempt=attempt,
                                        reason=reason))

    def _emit_finished(self, index: int, status: str, attempts: int,
                       value: object = None) -> None:
        if self._tel is None:
            return
        manifest = getattr(value, "manifest", None)
        self._tel.emit(JobFinished.now(
            label=self._labels[index], run_key=self._keys[index],
            index=index, status=status,
            attempts=attempts,
            seconds=manifest.total_seconds if manifest is not None
            else 0.0,
            cache_hit=bool(getattr(manifest, "cache_hit", False)),
            worker=str(getattr(manifest, "worker", ""))))

    # ------------------------------------------------------------------
    # inline execution (jobs == 1, or single-item batches)
    # ------------------------------------------------------------------

    def _inline_outcomes(self, fn: Callable[[T], R], items: Sequence[T],
                         policy: FaultPolicy) -> List[JobReport]:
        """In-process path: retries apply, timeouts cannot preempt."""
        reports: List[JobReport] = []
        aborted = False
        for index, item in enumerate(items):
            if aborted:
                reports.append(JobReport(
                    index=index, status=JobStatus.CANCELLED,
                    error="cancelled by fail-fast", attempts=0))
                self._emit_finished(index, "cancelled", 0)
                continue
            failures = 0
            while True:
                try:
                    value = fn(item)
                except Exception as exc:
                    failures += 1
                    if failures <= policy.max_retries:
                        self._emit_retry(index, failures, "failed")
                        time.sleep(policy.backoff(failures))
                        continue
                    reports.append(JobReport(
                        index=index, status=JobStatus.FAILED,
                        error=_format_error(exc), attempts=failures,
                        exception=exc))
                    self._emit_finished(index, "failed", failures)
                    aborted = policy.fail_fast
                else:
                    reports.append(JobReport(
                        index=index, status=JobStatus.OK, value=value,
                        attempts=failures + 1))
                    self._emit_finished(index, "ok", failures + 1,
                                        value)
                break
        return reports

    # ------------------------------------------------------------------
    # pooled execution
    # ------------------------------------------------------------------

    def _pooled_outcomes(self, fn: Callable[[T], R], items: Sequence[T],
                         policy: FaultPolicy) -> List[JobReport]:
        """Wave executor: submit pending jobs, settle each in order.

        ``pending`` holds ``(index, failures_so_far)`` pairs.  A wave
        is normally the whole pending list; after an unattributable
        pool break it shrinks to one job so the next break names its
        culprit, and widens back out the moment the culprit is charged
        (or every suspect has run alone).  Jobs resubmitted because
        *another* job broke the pool keep their failure count —
        recovery never taxes the innocent.
        """
        reports: List[Optional[JobReport]] = [None] * len(items)
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(items))]
        serialize = False
        suspects: Set[int] = set()
        while pending:
            if serialize:
                wave, pending = pending[:1], pending[1:]
            else:
                wave, pending = pending, []
            retry_round = max((fails for _, fails in wave), default=0)
            if retry_round:
                time.sleep(policy.backoff(retry_round))
            pool = self._pool()
            submitted = [(index, fails, pool.submit(fn, items[index]))
                         for index, fails in wave]
            expired = self._drive_wave([f for _, _, f in submitted],
                                       policy)
            broke = bool(expired)
            crash_break = False
            crashed_alone = False
            aborted = False
            leftovers: List[Future] = []
            for index, fails, future in submitted:
                if aborted:
                    if not future.cancel() and not future.done():
                        leftovers.append(future)
                    reports[index] = JobReport(
                        index=index, status=JobStatus.CANCELLED,
                        error="cancelled by fail-fast", attempts=fails)
                    self._emit_finished(index, "cancelled", fails)
                    continue
                if future in expired:
                    # Ran past its own budget (anchored to when it was
                    # observed executing, not to wave submission).
                    aborted = self._settle_timeout(reports, pending,
                                                   index, fails + 1,
                                                   policy)
                    continue
                if broke:
                    # The pool died in this wave: salvage results that
                    # finished before the break, resubmit the rest
                    # with their failure counts untouched.
                    salvage = self._salvage(reports, pending, index,
                                            fails, future, policy)
                    aborted = salvage and policy.fail_fast
                    continue
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    self._teardown_pool(kill=True)
                    if self._tel is not None:
                        self._tel.emit(PoolRebuilt.now(reason="crash"))
                    broke = True
                    crash_break = True
                    if len(wave) == 1:
                        # Alone in the pool: the crash is this job's.
                        crashed_alone = True
                        aborted = self._settle_failure(
                            reports, pending, index, fails + 1, exc,
                            policy)
                    else:
                        # Cannot tell which job killed the pool —
                        # resubmit uncharged; isolation is decided at
                        # the end of the wave.
                        pending.append((index, fails))
                        self._emit_retry(index, fails, "pool_broken")
                except CancelledError:
                    pending.append((index, fails))
                except Exception as exc:
                    aborted = self._settle_failure(reports, pending,
                                                   index, fails + 1,
                                                   exc, policy)
                else:
                    reports[index] = JobReport(
                        index=index, status=JobStatus.OK, value=value,
                        attempts=fails + 1)
                    self._emit_finished(index, "ok", fails + 1, value)
            if aborted:
                for index, fails in pending:
                    reports[index] = JobReport(
                        index=index, status=JobStatus.CANCELLED,
                        error="cancelled by fail-fast", attempts=fails)
                    self._emit_finished(index, "cancelled", fails)
                pending = []
                if leftovers:  # await stragglers: nothing runs detached
                    wait(leftovers)
            serialize, suspects = self._isolation_mode(
                wave, pending, serialize, suspects, crash_break,
                crashed_alone)
        return reports  # type: ignore[return-value]

    def _drive_wave(self, futures: Sequence[Future],
                    policy: FaultPolicy) -> FrozenSet[Future]:
        """Block until the wave settles or a hung job expires.

        Each job's ``job_timeout`` budget is anchored to the moment its
        future is first *observed* running — a job still queued behind
        a busy pool is never charged for its siblings' wall time.  (The
        executor flags a future as running when it enters the worker
        call queue, so the anchor can lead true execution by the
        queue's one-extra-item slack; that bites only when every worker
        is already stuck near the budget.)  On expiry the hung pool is
        killed and the expired futures returned; the settle phase
        charges exactly those and resubmits unfinished siblings
        uncharged.  A pool break ends the wait naturally: the executor
        marks every outstanding future done with ``BrokenProcessPool``.

        Without a timeout there is nothing to watch: the wave is
        awaited whole, except under fail-fast, where settling starts
        immediately so the tail can still be cancelled before it runs.
        """
        if policy.job_timeout is None:
            if not policy.fail_fast:
                wait(futures)
            return frozenset()
        started: Dict[Future, float] = {}
        while True:
            _, not_done = wait(futures, timeout=_TIMEOUT_POLL)
            if not not_done:
                return frozenset()
            now = time.monotonic()
            expired = set()
            for future in not_done:
                begun = started.get(future)
                if begun is None:
                    if future.running():
                        started[future] = now
                elif now - begun > policy.job_timeout:
                    expired.add(future)
            if expired:
                self._teardown_pool(kill=True)
                if self._tel is not None:
                    self._tel.emit(PoolRebuilt.now(reason="timeout"))
                return frozenset(expired)

    @staticmethod
    def _isolation_mode(wave: Sequence[Tuple[int, int]],
                        pending: Sequence[Tuple[int, int]],
                        serialize: bool, suspects: Set[int],
                        crash_break: bool, crashed_alone: bool,
                        ) -> Tuple[bool, Set[int]]:
        """Decide whether the next wave runs one job or all of them.

        An unattributable pool break (several jobs shared the pool)
        marks the wave's unfinished jobs as suspects and switches to
        one-job waves.  A suspect is cleared once it has run alone:
        either it crashed the pool by itself — culprit found and
        charged, every other suspect exonerated at once — or it
        settled cleanly, shrinking the candidate set.  Parallel waves
        resume the moment the suspect set drains, so one crash never
        serialises the rest of a large sweep.
        """
        if crashed_alone:
            return False, set()
        if crash_break and len(wave) > 1:
            wave_indices = {index for index, _ in wave}
            return True, suspects | {index for index, _ in pending
                                     if index in wave_indices}
        if serialize and wave:
            index, fails = wave[0]
            # A solo job resubmitted with its failure count untouched
            # (pool killed under it by a sibling-less cancel) is still
            # unexplained; anything else — settled, charged, or
            # charged-and-retried — clears it.
            requeued_uncharged = any(i == index and f == fails
                                     for i, f in pending)
            if not requeued_uncharged:
                suspects.discard(index)
            if not suspects:
                return False, suspects
        return serialize, suspects

    def _salvage(self, reports: List[Optional[JobReport]],
                 pending: List[Tuple[int, int]], index: int, fails: int,
                 future: Future, policy: FaultPolicy) -> bool:
        """After a pool break: harvest a finished future or resubmit.

        Returns True when the job terminally failed (fail-fast cue).
        """
        if future.done() and not future.cancelled():
            try:
                value = future.result(timeout=0)
            except (BrokenProcessPool, CancelledError,
                    FutureTimeoutError):
                pending.append((index, fails))
            except Exception as exc:
                return self._settle_failure(reports, pending, index,
                                            fails + 1, exc, policy)
            else:
                reports[index] = JobReport(
                    index=index, status=JobStatus.OK, value=value,
                    attempts=fails + 1)
                self._emit_finished(index, "ok", fails + 1, value)
            return False
        future.cancel()
        pending.append((index, fails))
        return False

    def _settle_failure(self, reports: List[Optional[JobReport]],
                        pending: List[Tuple[int, int]], index: int,
                        failures: int, exc: BaseException,
                        policy: FaultPolicy) -> bool:
        """Record one failed attempt; retry or finalise.  True = abort."""
        if failures <= policy.max_retries:
            pending.append((index, failures))
            self._emit_retry(index, failures, "failed")
            return False
        reports[index] = JobReport(
            index=index, status=JobStatus.FAILED,
            error=_format_error(exc), attempts=failures, exception=exc)
        self._emit_finished(index, "failed", failures)
        return policy.fail_fast

    def _settle_timeout(self, reports: List[Optional[JobReport]],
                        pending: List[Tuple[int, int]], index: int,
                        failures: int, policy: FaultPolicy) -> bool:
        """Record one expired attempt; retry or finalise.  True = abort."""
        if failures <= policy.max_retries:
            pending.append((index, failures))
            self._emit_retry(index, failures, "timed_out")
            return False
        reports[index] = JobReport(
            index=index, status=JobStatus.TIMED_OUT,
            error=(f"timed out after {policy.job_timeout}s "
                   f"(attempt {failures}); worker killed"),
            attempts=failures)
        self._emit_finished(index, "timed_out", failures)
        return policy.fail_fast

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            init = self.telemetry.pool_init() \
                if self.telemetry is not None else None
            if init is not None:
                initializer, initargs = init
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=initializer,
                    initargs=initargs)
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs)
        return self._executor

    def _teardown_pool(self, kill: bool = False) -> None:
        """Drop the executor; with ``kill``, terminate its workers.

        Used when a worker hangs past its timeout (the only way to
        reclaim it) or the pool is already broken.  The next
        :meth:`_pool` call builds a fresh executor.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            processes = list(getattr(executor, "_processes", {})
                             .values())
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=1.0)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive teardown
            pass

    # ------------------------------------------------------------------
    # simulation jobs
    # ------------------------------------------------------------------

    def run_sim_jobs(self, jobs: Sequence[JobRequest],
                     policy: Optional[FaultPolicy] = None,
                     worker: Optional[Callable[[JobRequest], JobOutcome]]
                     = None) -> List[JobOutcome]:
        """Execute a batch of grid cells (cache-aware, order-preserving).

        Every cell gets a :class:`JobOutcome` — failed cells carry a
        failure manifest instead of a result, so a partial grid still
        returns whole.  A job with ``fast_forward=None`` runs with the
        engine's default.  ``worker`` overrides the executing callable
        (the fault-injection seam used by the test-suite).

        Unless ledgers are disabled, the batch is recorded as one
        run-ledger JSONL (see :mod:`repro.obs.ledger`): the records
        are derived from the very outcome list returned here, so
        ledger and results agree by construction, and each outcome's
        manifest is stamped with the batch's ``run_id``.
        """
        jobs = [job.resolve(self.fast_forward) for job in jobs]
        self._sweep_cache_once()
        fn = worker if worker is not None else partial(
            execute_job, cache_dir=self.cache_dir,
            cache_max_bytes=self.cache_max_bytes)
        ledger = self._open_ledger(len(jobs))
        try:
            reports = self.map_outcomes(fn, jobs, policy=policy)
        except BaseException:
            if ledger is not None:
                ledger.close(aborted=True, **self.ledger_meta)
            raise
        outcomes = [outcome_from_report(job, report)
                    for job, report in zip(jobs, reports)]
        if ledger is not None:
            for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
                outcome.manifest.run_id = ledger.run_id
                ledger.job(**_ledger_record(index, job, outcome))
            ledger.close(**self.ledger_meta)
            self.last_run_id = ledger.run_id
        return outcomes

    def _open_ledger(self, job_count: int) -> Optional[LedgerWriter]:
        """A writer for this batch, or None when ledgers are off."""
        if self.ledger is False:
            return None
        if self.ledger is True:
            if not self.cache_dir:
                return None
            directory = ledger_dir_for(self.cache_dir)
        else:
            directory = Path(self.ledger)
        return LedgerWriter(
            directory, new_run_id(), jobs=job_count,
            engine_jobs=self.jobs, cache_dir=str(self.cache_dir or ""),
            fast_forward=self.fast_forward)

    def _sweep_cache_once(self) -> None:
        """One janitor pass per engine, before jobs touch the cache.

        Workers open their caches with the janitor off — re-scanning
        every group directory per job would grow with cache size — so
        orphaned ``.tmp`` files are swept here, once, in the parent.
        """
        if self._cache_swept or not self.cache_dir:
            return
        self._cache_swept = True
        RunCache(self.cache_dir, janitor=True)

    def run_sim_job(self, job: JobRequest,
                    policy: Optional[FaultPolicy] = None) -> JobOutcome:
        """Execute one grid cell (still cache-aware and fault-aware)."""
        return self.run_sim_jobs([job], policy=policy)[0]

    def open_cache(self) -> Optional[RunCache]:
        """A cache handle on this engine's directory (None if disabled)."""
        if not self.cache_dir:
            return None
        return RunCache(self.cache_dir, max_bytes=self.cache_max_bytes)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Pending futures are cancelled rather than drained, so a close
        mid-failure never waits on work nobody will read.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ParallelEngine(jobs={self.jobs}, "
                f"cache_dir={self.cache_dir!r}, "
                f"fast_forward={self.fast_forward}, "
                f"policy={self.policy})")
