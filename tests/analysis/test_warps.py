"""Tests for warp-lifetime analysis and the SM's warp records."""

import pytest

from repro.analysis.warps import (
    lifetime_histogram,
    occupancy_tail_fraction,
    summarize_warps,
)
from repro.core.techniques import Technique, build_sm
from repro.sim.sm import WarpRecord
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import SMALL_SM


@pytest.fixture(scope="module")
def hotspot_result():
    kernel = build_kernel("hotspot", scale=0.25)
    sm = build_sm(kernel, Technique.BASELINE,
                  sm_config=SMALL_SM,
                  dram_latency=get_profile("hotspot").dram_latency)
    return kernel, sm.run()


class TestWarpRecords:
    def test_every_launched_warp_recorded(self, hotspot_result):
        kernel, result = hotspot_result
        assert len(result.warp_records) == kernel.n_warps
        assert sorted(r.warp_id for r in result.warp_records) == \
            sorted(w.warp_id for w in kernel.warps)

    def test_instruction_counts_match_traces(self, hotspot_result):
        kernel, result = hotspot_result
        by_id = {w.warp_id: len(w) for w in kernel.warps}
        for record in result.warp_records:
            assert record.instructions == by_id[record.warp_id]

    def test_lifetimes_positive_and_within_run(self, hotspot_result):
        _, result = hotspot_result
        for record in result.warp_records:
            assert 0 <= record.launch_cycle < record.finish_cycle
            assert record.finish_cycle <= result.cycles
            assert record.lifetime > 0

    def test_records_deterministic(self):
        kernel = build_kernel("nw", scale=0.5)
        runs = []
        for _ in range(2):
            sm = build_sm(kernel, Technique.BASELINE, sm_config=SMALL_SM)
            runs.append(sm.run().warp_records)
        assert runs[0] == runs[1]


class TestSummary:
    def test_summary_consistency(self, hotspot_result):
        _, result = hotspot_result
        summary = summarize_warps(result)
        assert summary.n_warps == len(result.warp_records)
        assert summary.min_lifetime <= summary.mean_lifetime \
            <= summary.max_lifetime
        assert summary.imbalance >= 1.0
        assert summary.drain_tail >= 0

    def test_empty_records_rejected(self, hotspot_result):
        from dataclasses import replace
        _, result = hotspot_result
        with pytest.raises(ValueError, match="no warps"):
            summarize_warps(replace(result, warp_rows=()))

    def test_hand_built_records(self):
        from repro.sim.sm import SimResult
        from repro.sim.stats import SMStats
        from repro.sim.memory import MemoryStats
        result = SimResult(
            kernel_name="x", technique="baseline", cycles=300,
            stats=SMStats(), memory=MemoryStats(), domain_stats={},
            idle_detect_final={}, pipeline_issues={},
            pipeline_lane_work={}, pipelines_by_kind={},
            warp_rows=((0, 0, 100, 10), (1, 0, 300, 10)))
        assert result.warp_records == (WarpRecord(0, 0, 100, 10),
                                       WarpRecord(1, 0, 300, 10))
        summary = summarize_warps(result)
        assert summary.mean_lifetime == pytest.approx(200.0)
        assert summary.imbalance == pytest.approx(1.5)
        assert summary.drain_tail == 200


class TestHistogramAndTail:
    def test_histogram_buckets(self):
        records = (WarpRecord(0, 0, 50, 1), WarpRecord(1, 0, 60, 1),
                   WarpRecord(2, 0, 250, 1))
        rows = lifetime_histogram(records, bucket=100)
        assert rows[0][0] == 0 and rows[0][2] == 2
        assert rows[1][0] == 200 and rows[1][2] == 1

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            lifetime_histogram((), bucket=0)

    def test_tail_fraction_bounds(self, hotspot_result):
        _, result = hotspot_result
        tail = occupancy_tail_fraction(result)
        assert 0.0 <= tail <= 1.0

    def test_tail_fraction_tiny_kernel_is_one(self):
        kernel = build_kernel("nw", scale=0.1)
        sm = build_sm(kernel, Technique.BASELINE, sm_config=SMALL_SM)
        result = sm.run()
        if len(result.warp_records) <= 4:
            assert occupancy_tail_fraction(result) == 1.0
