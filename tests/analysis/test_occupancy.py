"""Tests for the occupancy recorder."""

import pytest

from repro.analysis.occupancy import BUSY, IDLE, OccupancyRecorder
from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig

CONFIG = SMConfig(max_resident_warps=4,
                  memory=MemoryConfig(dram_jitter=0.0))


def single_int_kernel(n: int = 3) -> KernelTrace:
    warps = (WarpTrace(0, tuple(int_op(dest=i % 8, srcs=((i - 1) % 8,))
                                for i in range(n))),)
    return KernelTrace(name="k", warps=warps, max_resident_warps=4)


def build(kernel):
    return build_sm(kernel, Technique.BASELINE, sm_config=CONFIG)


class TestRecorder:
    def test_records_full_run(self):
        sm = build(single_int_kernel())
        recorder = OccupancyRecorder(sm)
        result = sm.run()
        for name, strip in recorder.strips().items():
            assert len(strip) == result.cycles

    def test_strip_matches_tracker_counts(self):
        sm = build(single_int_kernel())
        recorder = OccupancyRecorder(sm, names=("INT0",))
        result = sm.run()
        tracker = result.stats.idle_trackers["INT0"]
        assert recorder.busy_cycles("INT0") == tracker.busy_cycles
        assert recorder.strip("INT0").count(IDLE) == tracker.idle_cycles

    def test_longest_idle_run(self):
        sm = build(single_int_kernel())
        recorder = OccupancyRecorder(sm, names=("FP0",))
        sm.run()
        # No FP work at all: the whole run is one idle window.
        assert recorder.longest_idle_run("FP0") == \
            len(recorder.strip("FP0"))

    def test_unknown_pipeline_rejected(self):
        sm = build(single_int_kernel())
        with pytest.raises(KeyError, match="unknown pipelines"):
            OccupancyRecorder(sm, names=("NOPE",))

    def test_max_cycles_cap(self):
        sm = build(single_int_kernel(8))
        recorder = OccupancyRecorder(sm, names=("INT0",), max_cycles=5)
        sm.run()
        assert len(recorder.strip("INT0")) == 5
        assert recorder.truncated

    def test_to_text_layout(self):
        sm = build(single_int_kernel())
        recorder = OccupancyRecorder(sm, names=("INT0", "FP0"))
        sm.run()
        text = recorder.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("cycle")
        assert any(line.startswith("INT0") for line in lines)
        assert BUSY in text and IDLE in text

    def test_validation(self):
        sm = build(single_int_kernel())
        with pytest.raises(ValueError):
            OccupancyRecorder(sm, max_cycles=0)
