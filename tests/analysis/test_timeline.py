"""Tests for the power timeline recorder."""

import pytest

from repro.analysis.timeline import TIMELINE_HEADERS, PowerTimeline
from repro.core.techniques import Technique, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import SMALL_SM


def run_with_timeline(technique=Technique.WARPED_GATES, epoch=100,
                      names=None):
    kernel = build_kernel("hotspot", scale=0.2)
    sm = build_sm(kernel, technique, sm_config=SMALL_SM,
                  dram_latency=get_profile("hotspot").dram_latency)
    timeline = PowerTimeline(sm, epoch_cycles=epoch, names=names)
    result = sm.run()
    return timeline, result


class TestRecording:
    def test_epoch_cycle_accounting_closes(self):
        timeline, result = run_with_timeline()
        for name in timeline.domains():
            total = sum(s.cycles for s in timeline.samples(name))
            assert total == result.cycles

    def test_epoch_lengths(self):
        timeline, result = run_with_timeline(epoch=100)
        for name in timeline.domains():
            samples = timeline.samples(name)
            for sample in samples[:-1]:
                assert sample.cycles == 100
            assert 1 <= samples[-1].cycles <= 100
            assert [s.epoch for s in samples] == list(range(len(samples)))

    def test_issue_totals_match_pipeline_counts(self):
        timeline, result = run_with_timeline()
        for name in timeline.domains():
            total = sum(s.issues for s in timeline.samples(name))
            assert total == result.pipeline_issues[name]

    def test_gated_totals_match_domain_stats(self):
        timeline, result = run_with_timeline()
        for name, stats in result.domain_stats.items():
            recorded = sum(s.gated for s in timeline.samples(name))
            # finalize() books the trailing window at end-of-run; the
            # timeline saw those cycles live, so they match exactly.
            assert recorded == stats.gated_cycles

    def test_ungated_pipeline_never_gates(self):
        timeline, _ = run_with_timeline(names=("LDST",))
        assert all(s.gated == 0 and s.waking == 0
                   for s in timeline.samples("LDST"))

    def test_baseline_has_no_gated_cycles(self):
        timeline, _ = run_with_timeline(technique=Technique.BASELINE)
        for name in timeline.domains():
            assert all(s.gated == 0 for s in timeline.samples(name))


class TestDerived:
    def test_gated_fraction_bounds(self):
        timeline, _ = run_with_timeline()
        for name in timeline.domains():
            for fraction in timeline.gated_fraction_series(name):
                assert 0.0 <= fraction <= 1.0

    def test_leakage_fraction_complements_gated(self):
        timeline, _ = run_with_timeline()
        sample = timeline.samples("INT0")[0]
        assert sample.leakage_fraction() == pytest.approx(
            1.0 - sample.gated / sample.cycles)

    def test_rows_shape(self):
        timeline, _ = run_with_timeline(names=("INT0",))
        rows = timeline.to_rows("INT0")
        assert rows and len(rows[0]) == len(TIMELINE_HEADERS)


class TestValidation:
    def test_epoch_must_be_positive(self):
        kernel = build_kernel("hotspot", scale=0.1)
        sm = build_sm(kernel, Technique.BASELINE, sm_config=SMALL_SM)
        with pytest.raises(ValueError):
            PowerTimeline(sm, epoch_cycles=0)

    def test_unknown_pipeline(self):
        kernel = build_kernel("hotspot", scale=0.1)
        sm = build_sm(kernel, Technique.BASELINE, sm_config=SMALL_SM)
        with pytest.raises(KeyError):
            PowerTimeline(sm, names=("XYZ",))
