"""Acceptance: a parallel grid exports as one merged, per-worker trace.

These tests pin the PR's headline contract: run a multi-job batch over
real worker processes with telemetry attached, and the *parent* ends up
holding everything — a JSONL event log containing worker-originated
records, and a single Chrome trace whose spans sit in per-worker lanes.
A crashed worker must degrade the trace (missing span), never corrupt
it.
"""

import io
import json

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine
from repro.obs.exporters import (
    EngineTraceExporter,
    JsonlEventLog,
    validate_chrome_trace,
)
from repro.obs.telemetry import EngineTelemetry, WorkerEventSummary

from tests.engine.faults import FaultPlan, FaultyEngine


def _jobs(n=3, technique=Technique.BASELINE):
    return [JobRequest(benchmark="hotspot",
                       technique=technique, scale=0.2,
                       seed=seed) for seed in range(n)]


def _span_events(document):
    return [e for e in document["traceEvents"] if e["ph"] == "X"]


class TestParallelGridExport:
    def test_worker_events_land_in_parent_jsonl(self, tmp_path):
        sink = io.StringIO()
        with EngineTelemetry() as telemetry:
            log = JsonlEventLog(sink).attach(telemetry.bus)
            with ParallelEngine(jobs=2, cache_dir=str(tmp_path),
                                telemetry=telemetry) as engine:
                outcomes = engine.run_sim_jobs(_jobs(3))
            log.close()
        assert all(o.status.value == "ok" for o in outcomes)
        records = [json.loads(line) for line
                   in sink.getvalue().splitlines()]
        by_type = {}
        for record in records:
            by_type.setdefault(record["event"], []).append(record)
        # Parent-side lifecycle plus worker-originated records, merged.
        assert len(by_type["JobQueued"]) == 3
        assert len(by_type["JobFinished"]) == 3
        assert len(by_type["WorkerEventSummary"]) == 3
        workers = {r["worker"] for r in by_type["WorkerEventSummary"]}
        assert workers  # real pool workers, not the parent
        assert "MainProcess" not in workers
        for record in by_type["WorkerEventSummary"]:
            assert sum(record["counts"].values()) > 0

    def test_single_merged_trace_with_worker_lanes(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        with EngineTelemetry() as telemetry:
            trace = EngineTraceExporter().attach(telemetry.bus)
            with ParallelEngine(jobs=2,
                                cache_dir=str(tmp_path / "cache"),
                                telemetry=telemetry) as engine:
                outcomes = engine.run_sim_jobs(_jobs(4))
            trace.write(trace_path)
        assert all(o.status.value == "ok" for o in outcomes)

        document = json.loads(trace_path.read_text(encoding="utf-8"))
        validate_chrome_trace(document)
        spans = _span_events(document)
        assert len(spans) == 4  # one box per job
        assert {s["name"] for s in spans} \
            == {f"hotspot/baseline/s{i}" for i in range(4)}
        # Per-worker lanes: every span's tid maps to a named worker
        # thread, and the lanes cover every span.
        lanes = {e["tid"]: e["args"]["name"]
                 for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        for span in spans:
            assert lanes[span["tid"]].startswith("worker ")
        assert document["otherData"]["workers"] == trace.worker_lanes
        assert trace.worker_lanes  # at least one real worker lane
        # Spans carry the digested sim activity.
        for span in spans:
            assert span["dur"] >= 1
            assert sum(span["args"]["sim_events"].values()) > 0

    def test_inline_batch_exports_the_same_way(self, tmp_path):
        # jobs=1 runs in-process; the exporter must not care.
        with EngineTelemetry() as telemetry:
            trace = EngineTraceExporter().attach(telemetry.bus)
            with ParallelEngine(jobs=1, cache_dir=str(tmp_path),
                                telemetry=telemetry) as engine:
                engine.run_sim_jobs(_jobs(2))
            document = trace.to_document()
        validate_chrome_trace(document)
        assert len(_span_events(document)) == 2
        assert trace.worker_lanes == ["MainProcess"]


class TestCrashTolerance:
    def test_crashed_worker_leaves_trace_valid(self, tmp_path):
        # One job's worker hard-exits (os._exit): its summary is never
        # shipped, the pool breaks and is rebuilt, the other jobs
        # complete.  The merged trace must stay schema-valid with the
        # dead job rendered as a missing span + a failure marker.
        plan = FaultPlan(exit=("hotspot/baseline/s1",))
        with EngineTelemetry() as telemetry:
            trace = EngineTraceExporter().attach(telemetry.bus)
            engine = FaultyEngine(plan, jobs=2,
                                  cache_dir=str(tmp_path),
                                  telemetry=telemetry)
            try:
                outcomes = engine.run_sim_jobs(_jobs(3))
            finally:
                engine.close()
            document = trace.to_document()

        statuses = [o.status.value for o in outcomes]
        assert statuses[1] == "failed"
        assert statuses[0] == "ok" and statuses[2] == "ok"

        validate_chrome_trace(document)
        spans = _span_events(document)
        span_names = {s["name"] for s in spans}
        assert "hotspot/baseline/s1" not in span_names  # no summary
        assert {"hotspot/baseline/s0",
                "hotspot/baseline/s2"} <= span_names
        markers = {e["name"] for e in document["traceEvents"]
                   if e["ph"] == "i"}
        assert "failed:hotspot/baseline/s1" in markers
        assert "pool_rebuilt" in markers

    def test_partial_summaries_never_block_flush(self, tmp_path):
        # flush() after a crash must return promptly (nothing wedges),
        # and the bus must only carry complete records.
        plan = FaultPlan(exit=("hotspot/baseline/s0",))
        with EngineTelemetry() as telemetry:
            seen = []
            telemetry.bus.subscribe(seen.append, WorkerEventSummary)
            engine = FaultyEngine(plan, jobs=2,
                                  cache_dir=str(tmp_path),
                                  telemetry=telemetry)
            try:
                engine.run_sim_jobs(_jobs(2))
            finally:
                engine.close()
            assert telemetry.flush(timeout=10.0)
        assert {s.label for s in seen} == {"hotspot/baseline/s1"}
