"""Observing a job never steers it.

An engine job runs the same simulation whether or not an
:class:`~repro.obs.telemetry.EngineTelemetry` watches it: the same
execution mode mix (pinned by the planner's overhead counter), the same
result digest and the same manifest.  The worker summary's sim-event
counts come from the finished result and must equal what an explicit
enabled bus publishes over the same run.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.device import device_preset
from repro.core.digest import result_digest
from repro.core.techniques import build_sm
from repro.engine import ParallelEngine, SimJob
from repro.engine.jobs import SMPartJob, execute_sm_part, load_or_build_kernel
from repro.obs.bus import EventBus
from repro.obs.telemetry import (
    EngineTelemetry,
    WorkerEventSummary,
    inline_worker,
    result_event_counts,
)
from repro.sim.gpu import split_kernel
from repro.workloads.specs import get_profile

TECHNIQUE = "warped_gates"

#: (benchmark, scale): hotspot's observed runs used to lose every
#: skipped span to the dense kernel; bfs publishes ~400k events.
CELLS = (("hotspot", 0.5), ("bfs", 1.0))

#: Manifest fields that legitimately differ between two executions.
VOLATILE = ("wall_seconds", "created_at", "worker", "run_id")

#: The sim-event types a worker summary counts.
SUMMARY_TYPES = ("GateOn", "GateOff", "Wakeup", "BlackoutBlocked",
                 "IssueStall")

#: What an enabled bus publishes over bfs at scale 1.0.
BFS_BUS_COUNTS = {"GateOn": 863, "GateOff": 863, "Wakeup": 859,
                  "BlackoutBlocked": 2795, "IssueStall": 403_685}


def _run_grid(jobs: int, observed: bool):
    """Both cells through one engine batch; (outcomes, summaries)."""
    cells = [SimJob(benchmark=b, config=TECHNIQUE, scale=s)
             for b, s in CELLS]
    if not observed:
        with ParallelEngine(jobs=jobs, cache_dir=None) as engine:
            return engine.run_sim_jobs(cells), []
    summaries = []
    with EngineTelemetry() as telemetry:
        telemetry.bus.subscribe(summaries.append, WorkerEventSummary)
        with ParallelEngine(jobs=jobs, cache_dir=None,
                            telemetry=telemetry) as engine:
            outcomes = engine.run_sim_jobs(cells)
    return outcomes, summaries


def _stable_manifest(manifest) -> dict:
    record = dataclasses.asdict(manifest)
    for name in VOLATILE:
        del record[name]
    return record


@pytest.fixture(scope="module", params=(1, 2), ids=("jobs1", "jobs2"))
def grid(request):
    """(bare outcomes, observed outcomes, observed summaries)."""
    bare, _ = _run_grid(request.param, observed=False)
    observed, summaries = _run_grid(request.param, observed=True)
    assert all(o.ok for o in bare + observed)
    return bare, observed, summaries


@pytest.fixture(scope="module")
def bus_counts():
    """Per-cell event-type counts of a serial run on an enabled bus."""
    counts = {}
    for benchmark, scale in CELLS:
        bus = EventBus(enabled=True)
        seen = Counter()
        bus.subscribe(lambda event: seen.update((type(event).__name__,)))
        kernel = load_or_build_kernel(benchmark, 0, scale)
        build_sm(kernel, TECHNIQUE,
                 dram_latency=get_profile(benchmark).dram_latency,
                 bus=bus).run()
        counts[benchmark] = dict(seen)
    return counts


class TestEngineJobs:
    def test_same_result_digest(self, grid):
        bare, observed, _ = grid
        assert [result_digest(o.result) for o in observed] \
            == [result_digest(o.result) for o in bare]

    def test_same_mode_mix(self, grid):
        bare, observed, _ = grid
        assert [o.result.stats.planner_overhead_cycles for o in observed] \
            == [o.result.stats.planner_overhead_cycles for o in bare]

    def test_same_manifests(self, grid):
        bare, observed, _ = grid
        assert [_stable_manifest(o.manifest) for o in observed] \
            == [_stable_manifest(o.manifest) for o in bare]


class TestSummaryCounts:
    def test_summary_counts_equal_the_bus(self, grid, bus_counts):
        _, _, summaries = grid
        by_label = {s.label: s.counts for s in summaries}
        assert len(by_label) == len(CELLS)
        for benchmark, _ in CELLS:
            summary = by_label[f"{benchmark}/{TECHNIQUE}/s0"]
            expected = {name: count
                        for name, count in bus_counts[benchmark].items()
                        if name in SUMMARY_TYPES}
            assert summary == expected

    def test_bfs_bus_counts(self, bus_counts):
        assert {name: bus_counts["bfs"][name] for name in SUMMARY_TYPES} \
            == BFS_BUS_COUNTS


def test_device_part_under_inline_worker():
    kernel = load_or_build_kernel("bfs", 0, 1.0)
    preset = device_preset("gtx480")
    parts = split_kernel(kernel, preset.n_sms)
    job = SMPartJob(
        part=parts[0], config=TECHNIQUE, sm_config=preset.sm,
        dram_latency=preset.memory_side.effective_dram_latency(
            get_profile("bfs").dram_latency, len(parts)))
    bare = execute_sm_part(job)
    summaries = []
    with EngineTelemetry() as telemetry:
        telemetry.bus.subscribe(summaries.append, WorkerEventSummary)
        with inline_worker(telemetry):
            observed = execute_sm_part(job)
    assert result_digest(observed) == result_digest(bare)
    assert observed.stats.planner_overhead_cycles \
        == bare.stats.planner_overhead_cycles
    assert [s.counts for s in summaries] == [result_event_counts(bare)]
