"""Tests for the issue-stall breakdown analysis."""

import pytest

from repro.analysis.stalls import (
    STALL_FIELDS,
    STALL_HEADERS,
    stall_counts,
    stall_rows,
    stalls_per_kilocycle,
)
from repro.core.techniques import Technique, run_benchmark

from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def runs():
    return {
        technique.value: run_benchmark(
            "hotspot", technique, scale=TEST_SCALE)
        for technique in (Technique.BASELINE, Technique.CONV_PG,
                          Technique.NAIVE_BLACKOUT)
    }


class TestCounts:
    def test_counts_cover_all_fields(self, runs):
        counts = stall_counts(runs["baseline"])
        assert set(counts) == set(STALL_FIELDS)
        assert all(v >= 0 for v in counts.values())

    def test_baseline_has_no_gating_stalls(self, runs):
        counts = stall_counts(runs["baseline"])
        assert counts["unit_gated"] == 0
        assert counts["unit_waking"] == 0

    def test_blackout_produces_denials(self, runs):
        counts = stall_counts(runs["naive_blackout"])
        assert counts["unit_gated"] > 0

    def test_conventional_never_denied(self, runs):
        counts = stall_counts(runs["conv_pg"])
        assert counts["unit_gated"] == 0


class TestDerived:
    def test_profile_of_stall_free_run(self):
        from repro.sim.sm import SimResult
        from repro.sim.stats import SMStats
        from repro.sim.memory import MemoryStats
        result = SimResult(
            kernel_name="x", technique="baseline", cycles=10,
            stats=SMStats(), memory=MemoryStats(), domain_stats={},
            idle_detect_final={}, pipeline_issues={},
            pipeline_lane_work={}, pipelines_by_kind={})
        assert stalls_per_kilocycle(result) == {
            field: 0.0 for field in STALL_FIELDS}

    def test_per_kilocycle_scaling(self, runs):
        result = runs["baseline"]
        per_kcyc = stalls_per_kilocycle(result)
        counts = stall_counts(result)
        for field in STALL_FIELDS:
            assert per_kcyc[field] == pytest.approx(
                1000.0 * counts[field] / result.cycles)

    def test_rows_shape(self, runs):
        rows = stall_rows(runs)
        assert len(rows) == len(runs)
        assert all(len(r) == len(STALL_HEADERS) for r in rows)
