"""Event-stream exporters: JSONL log and Chrome trace-event format.

Both exporters are plain bus subscribers — attach them to an SM's bus
before the run, harvest the files afterwards::

    sm = build_sm(kernel, config)
    sm.bus.enable()
    log = JsonlEventLog("events.jsonl")
    trace = ChromeTraceExporter()
    log.attach(sm.bus)
    trace.attach(sm.bus)
    result = sm.run()
    log.close()
    trace.write("trace.json", end_cycle=result.cycles)

The Chrome trace output loads directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_: one thread row per gating domain
showing its gated ("asleep") and waking spans, instant markers for
critical wakeups and blackout-denied requests, a scheduler row with
priority flips, and counter tracks for the adaptive idle-detect window.
Simulated cycles map 1:1 to trace microseconds (``ts``/``dur`` are in
µs), so span arithmetic in the UI reads in cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from repro.obs.bus import EventBus
from repro.obs.events import (
    BlackoutBlocked,
    EpochAdapt,
    Event,
    GateOff,
    GateOn,
    KernelBoundary,
    PriorityFlip,
    Wakeup,
)
from repro.obs.telemetry import (
    CacheHit,
    CacheMiss,
    JobFinished,
    JobRetry,
    PoolRebuilt,
    WorkerEventSummary,
)


class JsonlEventLog:
    """Streams every event as one JSON object per line.

    Lines look like ``{"event": "GateOn", "cycle": 120, "domain":
    "INT0"}`` — grep-able, pandas-loadable, and cheap to write.
    """

    def __init__(self, path: Union[str, Path, IO[str]]) -> None:
        if hasattr(path, "write"):
            self._stream: IO[str] = path  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = open(path, "w", encoding="utf-8")
            self._owns_stream = True
        self.events_written = 0
        self._bus: Optional[EventBus] = None

    def attach(self, bus: EventBus) -> "JsonlEventLog":
        """Subscribe to every event on ``bus``."""
        bus.subscribe(self._on_event)
        self._bus = bus
        return self

    def _on_event(self, event: Event) -> None:
        self._stream.write(json.dumps(event.to_record()))
        self._stream.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Detach from the bus and close an owned file."""
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None
        if self._owns_stream:
            self._stream.close()


def load_jsonl_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read back records written by :class:`JsonlEventLog`."""
    records = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: Synthetic thread ids for non-domain tracks.
_SCHEDULER_TID = 1000
_SM_TID = 1001


class ChromeTraceExporter:
    """Builds a Chrome trace-event document from the gating stream.

    Gated windows become complete ("X") duration events whose ``dur``
    is the window's exact gated length — so the per-domain sum of span
    durations equals the ``gated_cycles`` metric of the same run, a
    property the observability tests pin.
    """

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self._events: List[dict] = []
        self._tids: Dict[str, int] = {}
        self._bus: Optional[EventBus] = None

    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "ChromeTraceExporter":
        """Subscribe to the gating/scheduling events on ``bus``."""
        bus.subscribe(self._on_gate_off, GateOff)
        bus.subscribe(self._on_wakeup, Wakeup)
        bus.subscribe(self._on_blocked, BlackoutBlocked)
        bus.subscribe(self._on_flip, PriorityFlip)
        bus.subscribe(self._on_epoch, EpochAdapt)
        bus.subscribe(self._on_kernel, KernelBoundary)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Unsubscribe every handler."""
        if self._bus is None:
            return
        for handler in (self._on_gate_off, self._on_wakeup,
                        self._on_blocked, self._on_flip,
                        self._on_epoch, self._on_kernel):
            self._bus.unsubscribe(handler)
        self._bus = None

    def _tid(self, domain: str) -> int:
        if domain not in self._tids:
            self._tids[domain] = len(self._tids)
        return self._tids[domain]

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_gate_off(self, event: GateOff) -> None:
        # The window covered [cycle - gated_cycles, cycle); GateOn fired
        # one cycle before the span began (the switch closes at end of
        # cycle), so reconstructing from GateOff keeps ts + dur exact.
        self._events.append({
            "name": "gated", "ph": "X", "pid": self.pid,
            "tid": self._tid(event.domain),
            "ts": event.cycle - event.gated_cycles,
            "dur": event.gated_cycles,
            "args": {"compensated": event.compensated,
                     "final": event.final},
        })

    def _on_wakeup(self, event: Wakeup) -> None:
        if event.delay:
            self._events.append({
                "name": "waking", "ph": "X", "pid": self.pid,
                "tid": self._tid(event.domain),
                "ts": event.cycle, "dur": event.delay, "args": {},
            })
        if event.critical:
            self._events.append({
                "name": "critical_wakeup", "ph": "i", "s": "t",
                "pid": self.pid, "tid": self._tid(event.domain),
                "ts": event.cycle, "args": {},
            })

    def _on_blocked(self, event: BlackoutBlocked) -> None:
        self._events.append({
            "name": "blackout_blocked", "ph": "i", "s": "t",
            "pid": self.pid, "tid": self._tid(event.domain),
            "ts": event.cycle, "args": {"remaining": event.remaining},
        })

    def _on_flip(self, event: PriorityFlip) -> None:
        self._events.append({
            "name": f"priority->{event.new_highest}", "ph": "i",
            "s": "t", "pid": self.pid, "tid": _SCHEDULER_TID,
            "ts": event.cycle, "args": {"reason": event.reason},
        })

    def _on_epoch(self, event: EpochAdapt) -> None:
        self._events.append({
            "name": f"idle_detect[{event.unit}]", "ph": "C",
            "pid": self.pid, "ts": event.cycle,
            "args": {"idle_detect": event.idle_detect,
                     "critical_wakeups": event.critical_wakeups},
        })

    def _on_kernel(self, event: KernelBoundary) -> None:
        self._events.append({
            "name": f"kernel:{event.kernel}", "ph": "i", "s": "p",
            "pid": self.pid, "tid": _SM_TID,
            "ts": event.cycle, "args": {"index": event.index},
        })

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def gated_span_totals(self) -> Dict[str, int]:
        """Per-domain sum of gated-span durations (validation hook)."""
        totals: Dict[str, int] = {}
        tid_to_domain = {tid: name for name, tid in self._tids.items()}
        for event in self._events:
            if event.get("name") == "gated":
                domain = tid_to_domain[event["tid"]]
                totals[domain] = totals.get(domain, 0) + event["dur"]
        return totals

    def to_document(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        metadata = [
            {"name": "process_name", "ph": "M", "pid": self.pid,
             "args": {"name": "repro SM"}},
            {"name": "thread_name", "ph": "M", "pid": self.pid,
             "tid": _SCHEDULER_TID, "args": {"name": "scheduler"}},
        ]
        for domain, tid in sorted(self._tids.items(), key=lambda p: p[1]):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": f"domain {domain}"}})
        return {
            "traceEvents": metadata + self._events,
            "displayTimeUnit": "ns",
            "otherData": {"time_unit": "simulated cycles (as us)"},
        }

    def write(self, path: Union[str, Path],
              end_cycle: Optional[int] = None) -> None:
        """Serialise the trace to ``path`` (detaches first).

        ``end_cycle``, when given, is recorded in the document metadata
        so consumers know the run length without a separate manifest.
        """
        self.detach()
        document = self.to_document()
        if end_cycle is not None:
            document["otherData"]["end_cycle"] = end_cycle
        Path(path).write_text(json.dumps(document, indent=1),
                              encoding="utf-8")


#: Synthetic thread id for the engine's own (parent-side) lane.
_ENGINE_TID = 1000


class EngineTraceExporter:
    """Renders a whole parallel batch as one Chrome trace.

    A plain subscriber for the *engine* event stream (attach it to an
    :class:`~repro.obs.telemetry.EngineTelemetry` bus): every worker
    process gets its own lane, where each
    :class:`~repro.obs.telemetry.WorkerEventSummary` becomes a complete
    ("X") span — one box per job, carrying the sim-event counts read
    from its result — and cache hits/misses render as instant markers.  Retries,
    pool rebuilds and non-ok terminal outcomes land in a separate
    "engine" control lane.

    Engine events are wall-clock-stamped; timestamps are normalised to
    the batch's earliest event, in microseconds (the trace-event native
    unit), so the Perfetto timeline reads as real elapsed time.

    The exporter is *crash-tolerant by construction*: a worker killed
    mid-job never ships its summary, so its partial activity simply
    renders as missing span — the document stays well-formed
    (:func:`validate_chrome_trace`) no matter where the batch died.
    """

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        #: Raw entries carrying absolute wall-clock ``_ts`` (and
        #: ``_dur``) seconds; converted to µs offsets at export time.
        self._raw: List[dict] = []
        self._worker_tids: Dict[str, int] = {}
        self._bus: Optional[EventBus] = None

    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "EngineTraceExporter":
        """Subscribe to the engine events on ``bus``."""
        bus.subscribe(self._on_summary, WorkerEventSummary)
        bus.subscribe(self._on_finished, JobFinished)
        bus.subscribe(self._on_retry, JobRetry)
        bus.subscribe(self._on_rebuilt, PoolRebuilt)
        bus.subscribe(self._on_cache, CacheHit, CacheMiss)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Unsubscribe every handler."""
        if self._bus is None:
            return
        for handler in (self._on_summary, self._on_finished,
                        self._on_retry, self._on_rebuilt,
                        self._on_cache):
            self._bus.unsubscribe(handler)
        self._bus = None

    def _worker_tid(self, worker: str) -> int:
        if worker not in self._worker_tids:
            self._worker_tids[worker] = len(self._worker_tids)
        return self._worker_tids[worker]

    @property
    def worker_lanes(self) -> List[str]:
        """Worker names with a lane, in first-seen order."""
        return sorted(self._worker_tids,
                      key=self._worker_tids.__getitem__)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_summary(self, event: WorkerEventSummary) -> None:
        self._raw.append({
            "name": event.label, "ph": "X", "pid": self.pid,
            "tid": self._worker_tid(event.worker),
            "_ts": event.started_at,
            "_dur": max(event.finished_at - event.started_at, 0.0),
            "args": {"cycles": event.cycles,
                     "cache_hit": event.cache_hit,
                     "sim_events": dict(event.counts)},
        })

    def _on_finished(self, event: JobFinished) -> None:
        if event.status == "ok":
            return  # the worker span already shows the success
        self._raw.append({
            "name": f"{event.status}:{event.label}", "ph": "i",
            "s": "t", "pid": self.pid, "tid": _ENGINE_TID,
            "_ts": event.ts, "args": {"attempts": event.attempts},
        })

    def _on_retry(self, event: JobRetry) -> None:
        self._raw.append({
            "name": f"retry:{event.label}", "ph": "i", "s": "t",
            "pid": self.pid, "tid": _ENGINE_TID, "_ts": event.ts,
            "args": {"attempt": event.attempt,
                     "reason": event.reason},
        })

    def _on_rebuilt(self, event: PoolRebuilt) -> None:
        self._raw.append({
            "name": "pool_rebuilt", "ph": "i", "s": "g",
            "pid": self.pid, "tid": _ENGINE_TID, "_ts": event.ts,
            "args": {"reason": event.reason},
        })

    def _on_cache(self, event: Event) -> None:
        hit = isinstance(event, CacheHit)
        self._raw.append({
            "name": "cache_hit" if hit else "cache_miss", "ph": "i",
            "s": "t", "pid": self.pid,
            "tid": self._worker_tid(event.worker),
            "_ts": event.ts,
            "args": {"group": event.group, "key": event.key,
                     **({} if hit
                        else {"corrupt": event.corrupt})},
        })

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def to_document(self) -> dict:
        """The batch as a Chrome trace-event JSON object.

        Timestamps are µs offsets from the batch's earliest event; X
        spans get a minimum 1 µs duration so zero-length jobs stay
        visible (and schema-valid).
        """
        t0 = min((raw["_ts"] for raw in self._raw), default=0.0)
        events: List[dict] = []
        for raw in self._raw:
            event = {k: v for k, v in raw.items()
                     if not k.startswith("_")}
            event["ts"] = int((raw["_ts"] - t0) * 1e6)
            if event["ph"] == "X":
                event["dur"] = max(int(raw["_dur"] * 1e6), 1)
            events.append(event)
        events.sort(key=lambda e: (e["ts"], e["tid"]))
        metadata = [
            {"name": "process_name", "ph": "M", "pid": self.pid,
             "args": {"name": "repro engine"}},
            {"name": "thread_name", "ph": "M", "pid": self.pid,
             "tid": _ENGINE_TID, "args": {"name": "engine"}},
        ]
        for worker, tid in sorted(self._worker_tids.items(),
                                  key=lambda p: p[1]):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": f"worker {worker}"}})
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "wall-clock microseconds",
                          "workers": self.worker_lanes},
        }

    def write(self, path: Union[str, Path]) -> None:
        """Serialise the trace to ``path`` (detaches first)."""
        self.detach()
        Path(path).write_text(json.dumps(self.to_document(), indent=1),
                              encoding="utf-8")


def validate_chrome_trace(document: dict) -> None:
    """Raise ValueError unless ``document`` is a well-formed Chrome
    trace-event JSON object (the schema the tests and tooling rely on).
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a trace-event object: missing traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for required in ("name", "ph", "pid"):
            if required not in event:
                raise ValueError(f"traceEvents[{i}] missing {required!r}")
        phase = event["ph"]
        if phase not in ("X", "B", "E", "i", "I", "C", "M"):
            raise ValueError(f"traceEvents[{i}]: unknown phase {phase!r}")
        if phase in ("X", "B", "E", "i", "I", "C") and "ts" not in event:
            raise ValueError(f"traceEvents[{i}] missing 'ts'")
        if phase == "X" and not isinstance(event.get("dur"), int):
            raise ValueError(f"traceEvents[{i}]: X event needs int dur")
