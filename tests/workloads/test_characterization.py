"""Tests for workload characterisation (Figure 5 utilities)."""

import pytest

from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.isa.optypes import OpClass
from repro.workloads.characterization import (
    active_warp_rows,
    count_low_occupancy,
    instruction_mix_table,
)
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import TEST_SCALE

BENCHMARKS = ("hotspot", "lavaMD", "sgemm")


@pytest.fixture(scope="module")
def issued():
    """Per-type issue counts of each benchmark's baseline run."""
    runner = ExperimentRunner(ExperimentSettings(scale=TEST_SCALE,
                                                 benchmarks=BENCHMARKS))
    return {name: runner.baseline(name).stats.issued_by_class
            for name in BENCHMARKS}


@pytest.fixture(scope="module")
def rows(issued):
    return {row["benchmark"]: row for row in instruction_mix_table(issued)}


class TestStaticMix:
    def test_equals_the_trace_mix(self, rows):
        # Every trace instruction issues exactly once, so the baseline
        # run's mix is the generated trace's, to the last bit.
        for name, row in rows.items():
            trace_mix = build_kernel(name, scale=TEST_SCALE).op_class_mix()
            for cls in OpClass:
                assert row[cls.short_name] == trace_mix[cls]

    def test_measured_mix_tracks_spec(self, rows):
        row = rows["hotspot"]
        for cls in OpClass:
            assert row[cls.short_name] == pytest.approx(
                row[f"spec_{cls.short_name}"], abs=0.06)

    def test_integer_only_measured_as_such(self, rows):
        assert rows["lavaMD"]["fp"] == 0.0


class TestMixTable:
    def test_rows_cover_selection(self, issued):
        selection = {name: issued[name] for name in ("sgemm", "hotspot")}
        assert [r["benchmark"] for r in instruction_mix_table(selection)] \
            == ["sgemm", "hotspot"]

    def test_rows_have_measured_and_spec_columns(self, rows):
        for key in ("int", "fp", "sfu", "ldst",
                    "spec_int", "spec_fp", "spec_sfu", "spec_ldst"):
            assert key in rows["hotspot"]

    def test_spec_columns_come_from_the_profile(self, rows):
        spec_mix = get_profile("sgemm").spec.mix
        assert rows["sgemm"]["spec_fp"] == spec_mix[OpClass.FP]

    def test_fractions_sum_to_one(self, rows):
        row = rows["sgemm"]
        total = row["int"] + row["fp"] + row["sfu"] + row["ldst"]
        assert total == pytest.approx(1.0)

    def test_no_issues_give_zero_fractions(self):
        row = instruction_mix_table(
            {"hotspot": {cls: 0 for cls in OpClass}})[0]
        assert (row["int"], row["fp"], row["sfu"], row["ldst"]) \
            == (0.0, 0.0, 0.0, 0.0)


class TestActiveWarpRows:
    def test_sorted_descending_and_annotated(self):
        rows = active_warp_rows({"hotspot": (20.0, 30.0),
                                 "nw": (3.0, 8.0),
                                 "srad": (25.0, 40.0)})
        assert [r["benchmark"] for r in rows] == ["srad", "hotspot", "nw"]
        assert rows[0]["paper_avg"] == \
            get_profile("srad").paper_avg_active_warps

    def test_count_low_occupancy(self):
        rows = [{"avg_active_warps": 3.0}, {"avg_active_warps": 12.0},
                {"avg_active_warps": 9.9}]
        assert count_low_occupancy(rows) == 2
        assert count_low_occupancy(rows, threshold=5.0) == 1
