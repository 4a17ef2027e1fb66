"""Tests for SimResult's derived accessors and its stored form."""

import json
import pickle
import pickletools
from pathlib import Path

import pytest

from repro.core.digest import result_digest
from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ExecUnitKind
from repro.sim.memory import MemoryStats
from repro.sim.sm import SimResult
from repro.sim.stats import SMStats
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import SMALL_SM
from tests.sim.identity import (GOLDEN_BENCHMARKS, GOLDEN_TECHNIQUES,
                                device_result_digest, load_goldens,
                                run_golden_cell, run_golden_device)

#: ``metrics`` of the ``warped_result`` cell as ``SimResult`` produced
#: it when the flat metrics were still built and stored by the SM at
#: the end of a run.  Not regenerated from the derived view: it pins
#: that view to the dict the stored field held.
PINNED_METRICS = (Path(__file__).resolve().parent / "golden"
                  / "metrics_hotspot_warped_gates.json")

#: The device part pinned next to the golden single-SM cells.
DEVICE_CELL = ("hotspot", "warped_gates")


@pytest.fixture(scope="module")
def warped_result():
    kernel = build_kernel("hotspot", scale=0.25)
    sm = build_sm(kernel, Technique.WARPED_GATES,
                  sm_config=SMALL_SM,
                  dram_latency=get_profile("hotspot").dram_latency)
    return sm.run()


class TestAccessors:
    def test_pipeline_names_per_kind(self, warped_result):
        assert warped_result.pipeline_names(ExecUnitKind.INT) == \
            ("INT0", "INT1")
        assert warped_result.pipeline_names(ExecUnitKind.LDST) == ("LDST",)

    def test_unit_activity_consistency(self, warped_result):
        activity = warped_result.unit_activity(ExecUnitKind.INT)
        assert activity.cycles == 2 * warped_result.cycles
        assert activity.gated_cycles == sum(
            warped_result.domain_stats[n].gated_cycles
            for n in ("INT0", "INT1"))
        assert activity.issues == \
            warped_result.pipeline_issues["INT0"] + \
            warped_result.pipeline_issues["INT1"]
        assert 0 < activity.lane_work <= activity.issues

    def test_gating_totals_merge_all_counters(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.FP)
        per_domain = [warped_result.domain_stats[n]
                      for n in ("FP0", "FP1")]
        for field in ("gating_events", "wakeups", "gated_cycles",
                      "compensated_cycles", "uncompensated_cycles",
                      "critical_wakeups", "denied_wakeups",
                      "waking_cycles", "on_cycles",
                      "wakeups_uncompensated"):
            assert getattr(totals, field) == \
                sum(getattr(s, field) for s in per_domain)

    def test_gating_totals_for_ungated_kind_is_zero(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.LDST)
        assert totals.gated_cycles == 0
        assert totals.gating_events == 0

    def test_idle_histogram_merges_clusters(self, warped_result):
        merged = warped_result.idle_histogram(ExecUnitKind.INT)
        separate = [warped_result.stats.idle_trackers[n].histogram
                    for n in ("INT0", "INT1")]
        assert sum(merged.values()) == sum(
            sum(h.values()) for h in separate)

    def test_idle_fraction_in_unit_range(self, warped_result):
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP,
                     ExecUnitKind.SFU, ExecUnitKind.LDST):
            assert 0.0 <= warped_result.idle_fraction(kind) <= 1.0

    def test_compensated_metric_definition(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.INT)
        expected = (totals.compensated_cycles
                    - totals.uncompensated_cycles) / (
                        2 * warped_result.cycles)
        assert warped_result.compensated_metric(ExecUnitKind.INT) == \
            pytest.approx(expected)

    def test_unknown_kind_empty(self):
        result = SimResult(
            kernel_name="x", technique="baseline", cycles=1,
            stats=SMStats(), memory=MemoryStats(), domain_stats={},
            idle_detect_final={}, pipeline_issues={},
            pipeline_lane_work={}, pipelines_by_kind={})
        assert result.pipeline_names(ExecUnitKind.INT) == ()
        assert result.idle_histogram(ExecUnitKind.INT) == {}
        activity = result.unit_activity(ExecUnitKind.INT)
        assert activity.cycles == 0 and activity.issues == 0


@pytest.fixture(scope="module")
def stored_results():
    """``{label: (result, pickled bytes)}`` over the golden cells and
    one device part; the bytes are taken before any view is read."""
    cells = {}
    for benchmark in GOLDEN_BENCHMARKS:
        for technique in GOLDEN_TECHNIQUES:
            result = run_golden_cell(benchmark, technique)
            cells[f"{benchmark}/{technique}"] = (result,
                                                 pickle.dumps(result))
    part = run_golden_device(*DEVICE_CELL).sm_results[0]
    cells["device part 0"] = (part, pickle.dumps(part))
    return cells


class TestStoredForm:
    def test_digest_survives_pickle_round_trips(self, stored_results):
        goldens = load_goldens()
        for label, (result, blob) in stored_results.items():
            loaded = pickle.loads(blob)
            reloaded = pickle.loads(pickle.dumps(pickle.loads(blob)))
            digest = result_digest(result)
            assert result_digest(loaded) == digest, label
            assert result_digest(reloaded) == digest, label
            if label in goldens:
                assert digest == goldens[label], label

    def test_gpu_result_digest_survives_pickle_round_trip(self):
        device = run_golden_device(*DEVICE_CELL)
        loaded = pickle.loads(pickle.dumps(device))
        assert device_result_digest(loaded) == \
            load_goldens()["device/{}/{}".format(*DEVICE_CELL)]

    def test_reading_views_keeps_pickled_bytes(self, stored_results):
        for label, (result, blob) in stored_results.items():
            loaded = pickle.loads(blob)
            assert loaded.metrics, label
            assert result.metrics, label
            assert pickle.dumps(loaded) == blob, label
            assert pickle.dumps(result) == blob, label

    def test_untouched_load_repickles_to_same_bytes(self, stored_results):
        for label, (_, blob) in stored_results.items():
            assert pickle.dumps(pickle.loads(blob)) == blob, label

    def test_payload_holds_no_derived_views(self, stored_results):
        for label, (result, _) in stored_results.items():
            assert result.metrics  # memoised
            strings = {arg for _, arg, _ in
                       pickletools.genops(pickle.dumps(result))
                       if isinstance(arg, str)}
            assert "metrics" not in strings, label
            assert "warp_rows" in strings, label

    def test_metrics_equal_pinned_stored_dict(self, warped_result):
        pinned = json.loads(PINNED_METRICS.read_text(encoding="utf-8"))
        assert json.loads(json.dumps(warped_result.metrics)) == pinned

    def test_views_are_memoised(self, warped_result):
        assert warped_result.metrics is warped_result.metrics


@pytest.fixture(scope="module")
def hotspot_baseline():
    kernel = build_kernel("hotspot", scale=0.25)
    sm = build_sm(kernel, Technique.BASELINE, sm_config=SMALL_SM,
                  dram_latency=get_profile("hotspot").dram_latency)
    return kernel, sm.run()


class TestWarpRows:
    """``warp_rows``: one ``(warp_id, launch_cycle, finish_cycle,
    instructions)`` row per launched warp, in finish order."""

    def test_every_launched_warp_recorded(self, hotspot_baseline):
        kernel, result = hotspot_baseline
        assert len(result.warp_rows) == kernel.n_warps
        assert sorted(row[0] for row in result.warp_rows) == \
            sorted(w.warp_id for w in kernel.warps)

    def test_instruction_counts_match_traces(self, hotspot_baseline):
        kernel, result = hotspot_baseline
        by_id = {w.warp_id: len(w) for w in kernel.warps}
        for warp_id, _, _, instructions in result.warp_rows:
            assert instructions == by_id[warp_id]

    def test_lifetimes_positive_and_within_run(self, hotspot_baseline):
        _, result = hotspot_baseline
        for _, launch, finish, _ in result.warp_rows:
            assert 0 <= launch < finish <= result.cycles

    def test_rows_deterministic(self):
        kernel = build_kernel("nw", scale=0.5)
        runs = [build_sm(kernel, Technique.BASELINE,
                         sm_config=SMALL_SM).run().warp_rows
                for _ in range(2)]
        assert runs[0] == runs[1]
