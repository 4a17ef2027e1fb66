"""Cross-process engine telemetry: the event relay and its vocabulary.

PR 1's :class:`~repro.obs.bus.EventBus` stops at the process boundary:
every event published inside a :class:`~repro.engine.pool.ParallelEngine`
worker dies with the worker.  This module is the missing spine — it
makes a full parallel run observable end to end while preserving the
bus's zero-cost-when-disabled contract:

* **Engine events** (:class:`JobQueued`, :class:`JobStarted`,
  :class:`JobRetry`, :class:`JobFinished`, :class:`PoolRebuilt`, the
  ``Cache*`` family, :class:`WorkerEventSummary`) are wall-clock-stamped
  :class:`~repro.obs.events.Event` subclasses, so every existing
  subscriber — the JSONL log, progress renderers, test sinks — consumes
  them unchanged.
* **Summaries come from results, never from the simulation.**  A job's
  SM always runs on a disabled bus, exactly as an unobserved job does,
  so observing cannot change its execution mode mix or its result.
  When the job ends, its worker ships one compact
  :class:`WorkerEventSummary` whose sim-event counts are read off the
  finished :class:`~repro.sim.sm.SimResult` (:func:`result_event_counts`).
  Engine-level events (job started, cache hit/miss) forward immediately.
* **The relay is a ``multiprocessing`` queue.**  The parent's
  :class:`EngineTelemetry` owns a ``SimpleQueue`` handed to workers via
  the pool initializer (``initargs`` travel through process creation,
  so the queue is inherited, never pickled through the call pipe) and a
  drain thread that republishes arriving records onto the parent bus.
  ``SimpleQueue.put`` writes synchronously, so once a worker's function
  has returned — i.e. once the parent holds its future's result — the
  worker's records are in the pipe and :meth:`EngineTelemetry.flush`
  can drain them deterministically.

Zero cost when disabled
-----------------------

An engine without telemetry (the default) takes exactly one
``is None`` check per would-be hook; workers are started without the
initializer and no queue or thread exists.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import Event
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.sm import SimResult

#: Seconds the parent drain thread sleeps when the relay queue is empty.
DRAIN_POLL = 0.005


def _process_name() -> str:
    return multiprocessing.current_process().name


# ----------------------------------------------------------------------
# engine events
# ----------------------------------------------------------------------

@dataclass(slots=True)
class EngineEvent(Event):
    """Base class for engine/cache events.

    Engine events happen in wall-clock time, not simulated time, so
    ``cycle`` is always 0 and ``ts`` carries ``time.time()`` seconds.
    Build them with :meth:`now` rather than spelling the base fields.
    """

    ts: float = 0.0

    @classmethod
    def now(cls, **fields: object) -> "EngineEvent":
        """Construct the event stamped with the current wall clock."""
        return cls(cycle=0, ts=time.time(), **fields)


@dataclass(slots=True)
class JobQueued(EngineEvent):
    """The parent accepted one job into a batch."""

    label: str = ""
    run_key: str = ""
    index: int = -1
    spec_hash: str = ""


@dataclass(slots=True)
class JobStarted(EngineEvent):
    """A worker began executing a job (worker-originated)."""

    label: str = ""
    run_key: str = ""
    worker: str = ""


@dataclass(slots=True)
class JobRetry(EngineEvent):
    """A job attempt was charged (or a pool break forced a resubmit).

    ``reason`` is ``"failed"``, ``"timed_out"`` or ``"pool_broken"``
    (the last one is an *uncharged* resubmission after a crash that
    could not be attributed; ``attempt`` then repeats the prior count).
    """

    label: str = ""
    run_key: str = ""
    index: int = -1
    attempt: int = 0
    reason: str = ""


@dataclass(slots=True)
class JobFinished(EngineEvent):
    """A job settled terminally (parent-originated, authoritative)."""

    label: str = ""
    run_key: str = ""
    index: int = -1
    status: str = "ok"
    attempts: int = 1
    seconds: float = 0.0
    cache_hit: bool = False
    worker: str = ""


@dataclass(slots=True)
class PoolRebuilt(EngineEvent):
    """The worker pool was torn down and will be rebuilt.

    ``reason`` is ``"timeout"`` (a hung worker was killed) or
    ``"crash"`` (a worker died and broke the pool).
    """

    reason: str = ""


@dataclass(slots=True)
class CacheHit(EngineEvent):
    """A persistent-cache lookup was served from disk."""

    group: str = ""
    key: str = ""
    worker: str = ""


@dataclass(slots=True)
class CacheMiss(EngineEvent):
    """A persistent-cache lookup found nothing usable.

    ``corrupt`` distinguishes a damaged/legacy entry (present on disk
    but failing checksum or decode) from a plain absence.
    """

    group: str = ""
    key: str = ""
    worker: str = ""
    corrupt: bool = False


@dataclass(slots=True)
class CacheEvicted(EngineEvent):
    """One LRU-cap eviction pass completed (was previously silent)."""

    entries: int = 0
    bytes: int = 0


@dataclass(slots=True)
class CacheSwept(EngineEvent):
    """The janitor removed orphaned ``.tmp`` files (previously silent)."""

    removed: int = 0


@dataclass(slots=True)
class WorkerEventSummary(EngineEvent):
    """One job's summary, shipped by its worker when the job ends.

    ``counts`` maps sim-event type names to the number of events an
    enabled bus would have published, read from the finished result by
    :func:`result_event_counts` (empty for a cache hit).
    """

    label: str = ""
    run_key: str = ""
    worker: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    cycles: int = 0
    cache_hit: bool = False
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class ServiceJobAccepted(EngineEvent):
    """The simulation service accepted one submission.

    ``deduped`` marks a submission that single-flighted onto an
    existing in-flight (or memoised) execution instead of creating a
    new one — the N-responses half of "one engine execution, N
    responses".
    """

    job_id: str = ""
    label: str = ""
    spec_hash: str = ""
    deduped: bool = False


@dataclass(slots=True)
class ServiceJobStateChanged(EngineEvent):
    """One service job moved through its lifecycle.

    ``state`` is a :class:`~repro.service.core.JobState` value
    (``queued`` → ``running`` → ``ok`` / ``failed`` / ``timed_out`` /
    ``cancelled``).
    """

    job_id: str = ""
    label: str = ""
    state: str = ""


#: Every engine/cache event type, in a stable order (exporters, docs).
ENGINE_EVENT_TYPES: Tuple[type, ...] = (
    JobQueued, JobStarted, JobRetry, JobFinished, PoolRebuilt,
    CacheHit, CacheMiss, CacheEvicted, CacheSwept, WorkerEventSummary,
    ServiceJobAccepted, ServiceJobStateChanged,
)


def job_label(item: object, index: Optional[int] = None) -> str:
    """Human-readable label of one batch item, for display.

    :class:`~repro.engine.jobs.JobRequest`-shaped items label as
    ``benchmark/technique/sSEED`` (matching the test-suite's plan
    keys); anything else falls back to its position or type name.
    Distinct runs can share a label (another scale, SM config or
    gating); the job events' ``run_key`` names the run.
    """
    benchmark = getattr(item, "benchmark", None)
    if benchmark is not None:
        try:
            name = item.spec.name  # type: ignore[attr-defined]
        except Exception:
            name = str(getattr(item, "config", "?"))
        return f"{benchmark}/{name}/s{getattr(item, 'seed', 0)}"
    if index is not None:
        return f"item{index}"
    return type(item).__name__


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def result_event_counts(result: "SimResult") -> Dict[str, int]:
    """Sim-event counts of a finished run, read from its stored counters.

    Each count equals what an enabled bus publishes over the same run:
    one ``GateOn`` per gating event and one ``GateOff`` closing it (at
    wakeup or at the end of the run), one ``Wakeup`` per wakeup, one
    ``BlackoutBlocked`` per denied wakeup and one ``IssueStall`` per
    lost issue slot.  Types with no events are left out, as a bus
    subscriber would never have seen them.
    """
    domains = result.domain_stats.values()
    gating = sum(stats.gating_events for stats in domains)
    counts = {
        "GateOn": gating,
        "GateOff": gating,
        "Wakeup": sum(stats.wakeups for stats in domains),
        "BlackoutBlocked": sum(stats.denied_wakeups for stats in domains),
        "IssueStall": sum(astuple(result.stats.stalls)),
    }
    return {name: count for name, count in counts.items() if count}


class JobTelemetry:
    """One job's worker-side session: cache events and the summary.

    Created by :meth:`WorkerTelemetry.job_session`; emits
    :class:`JobStarted` on construction and a
    :class:`WorkerEventSummary` from :meth:`finish`.
    """

    __slots__ = ("label", "run_key", "started_at", "_send", "_worker",
                 "_finished")

    def __init__(self, send: Callable[[Event], None], label: str,
                 run_key: str = "") -> None:
        self.label = label
        self.run_key = run_key
        self.started_at = time.time()
        self._send = send
        self._worker = _process_name()
        self._finished = False
        send(JobStarted.now(label=label, run_key=run_key,
                            worker=self._worker))

    def emit(self, event: Event) -> None:
        """Forward one engine/cache event to the parent immediately."""
        self._send(event)

    def finish(self, result: "SimResult", cache_hit: bool = False) -> None:
        """Ship the job's summary, built from its result (idempotent;
        crash-safe by omission: a killed worker simply never sends one).

        A cache hit simulated nothing, so its summary carries no counts.
        """
        if self._finished:
            return
        self._finished = True
        self._send(WorkerEventSummary.now(
            label=self.label, run_key=self.run_key, worker=self._worker,
            started_at=self.started_at, finished_at=time.time(),
            cycles=result.cycles, cache_hit=cache_hit,
            counts={} if cache_hit else result_event_counts(result)))


class _JobProfile:
    """Context manager: cProfile one job, dump stats to the profile dir.

    Tolerates an already-active profiler (e.g. the parent's inline path
    under ``--profile``) by degrading to a no-op.
    """

    __slots__ = ("_dir", "_profile")

    def __init__(self, profile_dir: str) -> None:
        self._dir = profile_dir
        self._profile: Optional[cProfile.Profile] = None

    def __enter__(self) -> "_JobProfile":
        profile = cProfile.Profile()
        try:
            profile.enable()
        except ValueError:  # another profiler is active; stand down
            return self
        self._profile = profile
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._profile is None:
            return
        self._profile.disable()
        os.makedirs(self._dir, exist_ok=True)
        stamp = f"{os.getpid()}-{time.monotonic_ns():x}"
        self._profile.dump_stats(
            os.path.join(self._dir, f"worker-{stamp}.pstats"))


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class WorkerTelemetry:
    """Per-process worker state: where to send records, where to profile.

    One instance lives in each worker process (installed by the pool
    initializer) or in the parent for the inline ``jobs == 1`` path.
    ``send`` is ``queue.put`` in a worker, a direct locked bus publish
    inline, or None when only profiling is wanted.
    """

    __slots__ = ("send", "profile_dir")

    def __init__(self, send: Optional[Callable[[Event], None]],
                 profile_dir: Optional[str] = None) -> None:
        self.send = send
        self.profile_dir = profile_dir

    def job_session(self, label: str,
                    run_key: str = "") -> Optional[JobTelemetry]:
        """A telemetry session for one job (None when events are off)."""
        if self.send is None:
            return None
        return JobTelemetry(self.send, label, run_key)

    def profile_job(self):
        """Context manager profiling one job (no-op without a dir)."""
        if self.profile_dir is None:
            return _NULL_CONTEXT
        return _JobProfile(self.profile_dir)


#: The process-wide worker telemetry (None in uninstrumented processes).
_WORKER: Optional[WorkerTelemetry] = None


def init_worker_telemetry(queue, profile_dir: Optional[str] = None) -> None:
    """``ProcessPoolExecutor`` initializer: install worker telemetry.

    Top-level (hence picklable); ``queue`` travels through process
    creation, where ``multiprocessing`` queues are legal.
    """
    global _WORKER
    send = queue.put if queue is not None else None
    _WORKER = WorkerTelemetry(send, profile_dir)


def current_worker() -> Optional[WorkerTelemetry]:
    """This process's worker telemetry, if any was installed."""
    return _WORKER


@contextmanager
def inline_worker(telemetry: "EngineTelemetry") -> Iterator[None]:
    """Activate worker telemetry in-process for the inline engine path.

    Events publish straight onto the parent bus (no queue); worker
    profiling stays off — the parent's own profiler already covers
    inline execution.
    """
    global _WORKER
    previous = _WORKER
    send = telemetry.emit if telemetry.enabled else None
    _WORKER = WorkerTelemetry(send)
    try:
        yield
    finally:
        _WORKER = previous


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class EngineTelemetry:
    """The parent-side facade: bus, metrics, relay and profiling glue.

    Create one, hand it to a :class:`~repro.engine.pool.ParallelEngine`
    (``telemetry=``), and attach any bus subscriber — progress
    renderers, :class:`~repro.obs.exporters.JsonlEventLog`,
    :class:`~repro.obs.exporters.EngineTraceExporter` — to
    :attr:`bus`.  Publication is serialised by an internal lock (the
    relay thread and the engine's main thread both publish), so
    subscribers never need their own.

    ``metrics`` aggregates the stream into the labelled registry:
    ``engine_jobs_total{status=...}``, ``engine_retries_total{reason=
    ...}``, ``engine_cache_requests_total{disposition=...}``,
    ``engine_pool_rebuilds_total{reason=...}``, plus queue-wait and
    exec-time histograms in integer milliseconds.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 profile_dir: Optional[str] = None,
                 enabled: bool = True) -> None:
        self.bus = bus if bus is not None else EventBus(enabled=enabled)
        self.profile_dir = profile_dir
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._queue = None
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        self._busy = False
        self._queued_ts: Dict[str, list] = {}
        self.bus.subscribe(self._observe)

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Mirrors the bus flag; engine hooks check this once."""
        return self.bus.enabled

    def emit(self, event: Event) -> None:
        """Publish one event onto the parent bus (thread-safe)."""
        if not self.bus.enabled:
            return
        with self._lock:
            self.bus.publish(event)

    # ------------------------------------------------------------------
    # relay lifecycle
    # ------------------------------------------------------------------

    def ensure_relay(self):
        """The worker->parent queue, creating queue + drain thread."""
        if self._queue is None:
            self._queue = multiprocessing.SimpleQueue()
            self._stop = False
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-telemetry-relay",
                daemon=True)
            self._thread.start()
        return self._queue

    def pool_init(self) -> Optional[Tuple[Callable, Tuple]]:
        """(initializer, initargs) for the engine's pool, or None.

        Returns None when neither events nor worker profiling are
        wanted — the pool is then built exactly as before.
        """
        if not self.enabled and self.profile_dir is None:
            return None
        queue = self.ensure_relay() if self.enabled else None
        return (init_worker_telemetry,
                (queue, self.profile_dir))

    def _drain_loop(self) -> None:
        while True:
            if self._queue.empty():
                if self._stop:
                    return
                time.sleep(DRAIN_POLL)
                continue
            with self._lock:
                self._busy = True
            try:
                record = self._queue.get()
                with self._lock:
                    self.bus.publish(record)
            finally:
                with self._lock:
                    self._busy = False

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until every queued worker record has been published.

        Deterministic after a batch: workers write records *before*
        returning, so once the parent holds every result the records
        are in the pipe and this drains them.  Returns False only on
        timeout (a wedged relay), never raises.
        """
        if self._queue is None:
            return True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._queue.empty() and not self._busy:
                    return True
            time.sleep(DRAIN_POLL)
        return False

    def close(self) -> None:
        """Drain, stop the relay thread and drop the queue (idempotent).

        Call after the engine is closed — live workers must not hold
        the queue when it goes away.
        """
        if self._thread is not None:
            self.flush()
            self._stop = True
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._queue is not None:
            self._queue.close()
            self._queue = None

    def __enter__(self) -> "EngineTelemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metrics aggregation (a plain bus subscriber)
    # ------------------------------------------------------------------

    def _observe(self, event: Event) -> None:
        metrics = self.metrics
        if isinstance(event, JobQueued):
            metrics.counter("engine_jobs_queued").inc()
            self._queued_ts.setdefault(event.run_key or event.label,
                                       []).append(event.ts)
        elif isinstance(event, JobStarted):
            metrics.counter("engine_jobs_started").inc()
            pending = self._queued_ts.get(event.run_key or event.label)
            if pending:
                wait_ms = int((event.ts - pending.pop(0)) * 1000)
                metrics.histogram("engine_queue_wait_ms") \
                    .observe(max(wait_ms, 0))
        elif isinstance(event, JobFinished):
            metrics.counter("engine_jobs_total",
                            status=event.status).inc()
            if event.seconds:
                metrics.histogram("engine_exec_time_ms") \
                    .observe(max(int(event.seconds * 1000), 0))
        elif isinstance(event, JobRetry):
            metrics.counter("engine_retries_total",
                            reason=event.reason).inc()
        elif isinstance(event, PoolRebuilt):
            metrics.counter("engine_pool_rebuilds_total",
                            reason=event.reason).inc()
        elif isinstance(event, CacheHit):
            metrics.counter("engine_cache_requests_total",
                            disposition="hit").inc()
        elif isinstance(event, CacheMiss):
            disposition = "corrupt" if event.corrupt else "miss"
            metrics.counter("engine_cache_requests_total",
                            disposition=disposition).inc()
        elif isinstance(event, CacheEvicted):
            metrics.counter("engine_cache_evictions_total") \
                .inc(event.entries)
        elif isinstance(event, CacheSwept):
            metrics.counter("engine_cache_tmp_swept_total") \
                .inc(event.removed)
        elif isinstance(event, WorkerEventSummary):
            metrics.counter("engine_worker_events_total") \
                .inc(sum(event.counts.values()))
            span_ms = int((event.finished_at - event.started_at) * 1000)
            metrics.histogram("engine_worker_span_ms",
                              worker=event.worker) \
                .observe(max(span_ms, 0))

    def cache_hit_ratio(self) -> Optional[float]:
        """Hits / (hits + misses) over the stream, or None if no I/O."""
        hits = self.metrics.counter("engine_cache_requests_total",
                                    disposition="hit").value
        total = self.metrics.total("engine_cache_requests_total")
        return hits / total if total else None


__all__ = [
    "ENGINE_EVENT_TYPES",
    "CacheEvicted",
    "CacheHit",
    "CacheMiss",
    "CacheSwept",
    "EngineEvent",
    "EngineTelemetry",
    "JobFinished",
    "JobQueued",
    "JobRetry",
    "JobStarted",
    "JobTelemetry",
    "PoolRebuilt",
    "ServiceJobAccepted",
    "ServiceJobStateChanged",
    "WorkerEventSummary",
    "WorkerTelemetry",
    "current_worker",
    "init_worker_telemetry",
    "inline_worker",
    "job_label",
    "result_event_counts",
]
