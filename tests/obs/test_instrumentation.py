"""End-to-end observability tests on real simulator runs.

These pin the PR's acceptance criteria: event streams are ordered and
internally consistent, the metrics registry in ``SimResult.metrics``
exactly matches the legacy ``SMStats``/``GatingStats`` counters, and a
Chrome trace's gated spans sum (per domain) to the ``gated_cycles``
metric of the same run.
"""

import json

import pytest

from repro.core.techniques import Technique, build_sm
from repro.engine.jobs import JobRequest
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.obs.bus import EventBus
from repro.obs.events import GateOff, GateOn, Wakeup
from repro.obs.exporters import (
    ChromeTraceExporter,
    JsonlEventLog,
    load_jsonl_events,
    validate_chrome_trace,
)
from repro.workloads.registry import build_kernel

from tests.conftest import SMALL_SM, TEST_SCALE


def _instrumented_run(technique=Technique.WARPED_GATES):
    """One golden run with an enabled bus; returns (sm, result, events)."""
    kernel = build_kernel("hotspot", seed=0, scale=TEST_SCALE)
    bus = EventBus(enabled=True)
    sm = build_sm(kernel, technique, sm_config=SMALL_SM, bus=bus)
    events = []
    bus.subscribe(events.append)
    result = sm.run()
    return sm, result, events


@pytest.fixture(scope="module")
def golden():
    return _instrumented_run()


class TestEventOrdering:
    def test_cycles_are_nondecreasing(self, golden):
        _, _, events = golden
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        assert len(events) > 0

    def test_gate_events_alternate_per_domain(self, golden):
        # Every domain's stream must read GateOn, GateOff, GateOn, ...
        # (a wakeup can only close a window that a GateOn opened).
        _, _, events = golden
        open_domains = set()
        saw_gating = False
        for event in events:
            if isinstance(event, GateOn):
                assert event.domain not in open_domains
                open_domains.add(event.domain)
                saw_gating = True
            elif isinstance(event, GateOff):
                assert event.domain in open_domains
                open_domains.discard(event.domain)
        assert saw_gating
        assert not open_domains  # finalize closed every open window

    def test_event_counts_match_gating_stats(self, golden):
        sm, _, events = golden
        gate_ons = [e for e in events if isinstance(e, GateOn)]
        wakeups = [e for e in events if isinstance(e, Wakeup)]
        total_events = sum(d.stats.gating_events
                           for d in sm.domains.values())
        total_wakeups = sum(d.stats.wakeups for d in sm.domains.values())
        total_critical = sum(d.stats.critical_wakeups
                             for d in sm.domains.values())
        assert len(gate_ons) == total_events
        assert len(wakeups) == total_wakeups
        assert sum(1 for w in wakeups if w.critical) == total_critical

    def test_gate_off_windows_sum_to_gated_cycles(self, golden):
        sm, _, events = golden
        for name, domain in sm.domains.items():
            window_sum = sum(e.gated_cycles for e in events
                             if isinstance(e, GateOff) and e.domain == name)
            assert window_sum == domain.stats.gated_cycles


class TestMetricsMatchLegacyCounters:
    def test_sm_counters(self, golden):
        _, result, _ = golden
        metrics = result.metrics
        stats = result.stats
        assert metrics["sim_cycles"] == result.cycles == stats.cycles
        assert metrics["instructions_issued"] == stats.instructions_issued
        assert metrics["instructions_retired"] == \
            stats.instructions_retired
        assert metrics["instructions_fetched"] == stats.fetched
        for cls, count in stats.issued_by_class.items():
            assert metrics[f'issued{{op_class="{cls.name}"}}'] == count
        for reason in ("no_ready_warp", "structural", "unit_gated",
                       "unit_waking", "mshr_full"):
            assert metrics[f'issue_stalls{{reason="{reason}"}}'] == \
                getattr(stats.stalls, reason)
        assert metrics["ipc"] == stats.ipc

    def test_gating_counters(self, golden):
        sm, result, _ = golden
        for name, domain in sm.domains.items():
            for field in domain.stats.METRIC_NAMES:
                key = f'{field}{{domain="{name}"}}'
                assert result.metrics[key] == getattr(domain.stats, field)

    def test_idle_trackers(self, golden):
        _, result, _ = golden
        for name, tracker in result.stats.idle_trackers.items():
            assert result.metrics[f'busy_cycles{{unit="{name}"}}'] == \
                tracker.busy_cycles
            assert result.metrics[f'idle_cycles{{unit="{name}"}}'] == \
                tracker.idle_cycles
            assert result.metrics[
                f'idle_period_length{{unit="{name}"}}'] == tracker.histogram

    def test_metrics_present_with_disabled_bus_too(self):
        # The registry is built at collection time, not from events, so
        # an uninstrumented run (the default) carries the same view.
        kernel = build_kernel("hotspot", seed=0, scale=TEST_SCALE)
        sm = build_sm(kernel, Technique.WARPED_GATES, sm_config=SMALL_SM)
        result = sm.run()
        assert not sm.bus.enabled
        assert sm.bus.events_published == 0
        assert result.metrics["sim_cycles"] == result.cycles
        assert any(key.startswith("gated_cycles{")
                   for key in result.metrics)


class TestDisabledBusEquivalence:
    def test_instrumentation_does_not_perturb_the_simulation(self, golden):
        # Identical trace + config must give an identical run whether or
        # not anyone is listening: observation must stay observation.
        _, instrumented, _ = golden
        kernel = build_kernel("hotspot", seed=0, scale=TEST_SCALE)
        sm = build_sm(kernel, Technique.WARPED_GATES, sm_config=SMALL_SM)
        plain = sm.run()
        assert plain.cycles == instrumented.cycles
        assert plain.metrics == instrumented.metrics


class TestChromeTraceAcceptance:
    def test_trace_valid_and_spans_sum_to_gated_cycles(self, tmp_path):
        # The PR's headline acceptance criterion, end to end: run with
        # --emit-chrome-trace semantics, load the file, validate it, and
        # check per-domain gated-span sums against SimResult metrics.
        kernel = build_kernel("hotspot", seed=0, scale=TEST_SCALE)
        bus = EventBus(enabled=True)
        sm = build_sm(kernel, Technique.WARPED_GATES,
                      sm_config=SMALL_SM, bus=bus)
        trace = ChromeTraceExporter().attach(bus)
        result = sm.run()
        path = tmp_path / "trace.json"
        trace.write(path, end_cycle=result.cycles)

        document = json.loads(path.read_text(encoding="utf-8"))
        validate_chrome_trace(document)
        assert document["otherData"]["end_cycle"] == result.cycles

        spans = {}
        for event in document["traceEvents"]:
            if event.get("name") == "gated":
                spans[event["tid"]] = \
                    spans.get(event["tid"], 0) + event["dur"]
        by_domain = trace.gated_span_totals()
        assert sum(spans.values()) == sum(by_domain.values())
        for name in sm.domains:
            key = f'gated_cycles{{domain="{name}"}}'
            assert by_domain.get(name, 0) == result.metrics[key]

    def test_jsonl_log_round_trips_a_real_run(self, tmp_path):
        kernel = build_kernel("hotspot", seed=0, scale=TEST_SCALE)
        bus = EventBus(enabled=True)
        sm = build_sm(kernel, Technique.WARPED_GATES,
                      sm_config=SMALL_SM, bus=bus)
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path).attach(bus)
        sm.run()
        log.close()
        records = load_jsonl_events(path)
        assert log.events_written == len(records) == \
            bus.events_published
        assert {r["event"] for r in records} >= {"GateOn", "GateOff",
                                                 "Wakeup"}


class TestRunnerProvenance:
    def test_manifest_written_per_uncached_run(self):
        settings = ExperimentSettings(scale=TEST_SCALE,
                                      benchmarks=("hotspot",))
        runner = ExperimentRunner(settings)
        first = runner.run("hotspot", Technique.BASELINE)
        again = runner.run("hotspot", Technique.BASELINE)  # cached
        runner.run("hotspot", Technique.WARPED_GATES)
        assert again is first
        assert len(runner.manifests) == 2
        manifest = runner.manifests[0]
        assert manifest.benchmark == "hotspot"
        assert manifest.technique == "baseline"
        assert manifest.cycles == first.cycles
        assert manifest.cycles_per_sec > 0
        assert set(manifest.wall_seconds) == {"build_trace", "simulate"}
        # The default in-process engine runs the serial oracle, so the
        # key is the serial one.
        assert manifest.run_key == JobRequest(
            "hotspot", Technique.BASELINE, scale=TEST_SCALE).key(False)

    def test_runner_settings_default_is_not_shared(self):
        # Regression for the mutable-default constructor bug.
        a, b = ExperimentRunner(), ExperimentRunner()
        assert a.settings is not b.settings
