"""Unified observability layer: events, metrics, exporters, provenance.

The subsystem has four pieces, all usable independently:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — typed simulator
  events published into a zero-cost-when-disabled :class:`EventBus`;
  every SM owns one (``sm.bus``), shared with its gating domains,
  scheduler and epoch hooks.
* :mod:`repro.obs.metrics` — a labelled counters/gauges/histograms
  registry; the legacy per-object stats export into it at end of run and
  the flat dict lands on :class:`~repro.sim.sm.SimResult` as
  ``result.metrics``.
* :mod:`repro.obs.exporters` — JSONL event log and Chrome trace-event
  output (loadable in Perfetto), for both the sim stream and a whole
  parallel batch (:class:`EngineTraceExporter`, per-worker lanes).
* :mod:`repro.obs.manifest` — per-run provenance records (run key,
  wall-clock per phase, cycles/sec).
* :mod:`repro.obs.telemetry` — the cross-process relay: engine events,
  per-job worker summaries built from finished results, and
  :class:`EngineTelemetry`, the parent facade the
  :class:`~repro.engine.pool.ParallelEngine` streams through.
* :mod:`repro.obs.ledger` — the per-batch run-ledger JSONL flight
  recorder behind ``repro runs list|show``.
* :mod:`repro.obs.progress` — the TTY-aware live progress renderer
  behind ``--progress``.
* :mod:`repro.obs.subscribe` — replayable :class:`Feed`\\ s, the
  service's per-job event streams.
"""

from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import (
    EVENT_TYPES,
    BlackoutBlocked,
    EpochAdapt,
    Event,
    GateOff,
    GateOn,
    IssueStall,
    KernelBoundary,
    PriorityFlip,
    Wakeup,
)
from repro.obs.exporters import (
    ChromeTraceExporter,
    EngineTraceExporter,
    JsonlEventLog,
    load_jsonl_events,
    validate_chrome_trace,
)
from repro.obs.ledger import (
    LedgerWriter,
    ledger_dir_for,
    list_runs,
    load_run,
    new_run_id,
    summarize_run,
)
from repro.obs.manifest import (
    RunManifest,
    config_hash,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.progress import ProgressReporter
from repro.obs.subscribe import FEED_CLOSED, Feed
from repro.obs.telemetry import (
    ENGINE_EVENT_TYPES,
    CacheEvicted,
    CacheHit,
    CacheMiss,
    CacheSwept,
    EngineEvent,
    EngineTelemetry,
    JobFinished,
    JobQueued,
    JobRetry,
    JobStarted,
    PoolRebuilt,
    ServiceJobAccepted,
    ServiceJobStateChanged,
    WorkerEventSummary,
)

__all__ = [
    "EventBus", "NULL_BUS", "Event", "EVENT_TYPES",
    "GateOn", "GateOff", "Wakeup", "BlackoutBlocked",
    "PriorityFlip", "EpochAdapt", "IssueStall", "KernelBoundary",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "metric_key",
    "JsonlEventLog", "ChromeTraceExporter", "EngineTraceExporter",
    "load_jsonl_events", "validate_chrome_trace",
    "RunManifest", "config_hash",
    "ENGINE_EVENT_TYPES", "EngineEvent", "EngineTelemetry",
    "JobQueued", "JobStarted", "JobRetry",
    "JobFinished", "PoolRebuilt", "CacheHit", "CacheMiss",
    "CacheEvicted", "CacheSwept", "WorkerEventSummary",
    "ServiceJobAccepted", "ServiceJobStateChanged",
    "LedgerWriter", "ledger_dir_for", "list_runs", "load_run",
    "new_run_id", "summarize_run",
    "ProgressReporter",
    "FEED_CLOSED", "Feed",
]
