"""Tests for execution-unit pipelines."""

import pytest

from repro.isa.instructions import int_op, sfu_op
from repro.isa.optypes import ExecUnitKind
from repro.sim.exec_units import ExecPipeline


class TestPort:
    def test_initiation_interval_holds_port(self):
        pipe = ExecPipeline(ExecUnitKind.SFU, "SFU", initiation_interval=8)
        pipe.issue(0, warp_slot=0, inst=sfu_op(dest=0))
        for cycle in (1, 7):
            with pytest.raises(RuntimeError, match="port busy until 8"):
                pipe.issue(cycle, 1, sfu_op(dest=0))
        pipe.issue(8, 1, sfu_op(dest=0))

    def test_issue_into_held_port_raises(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0", initiation_interval=2)
        pipe.issue(0, 0, int_op(dest=0))
        with pytest.raises(RuntimeError, match="port busy"):
            pipe.issue(1, 1, int_op(dest=0))

    def test_ii_one_allows_back_to_back(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0")
        pipe.issue(0, 0, int_op(dest=0))
        pipe.issue(1, 1, int_op(dest=0))
        assert pipe.issued_count == 2

    def test_invalid_ii_rejected(self):
        with pytest.raises(ValueError):
            ExecPipeline(ExecUnitKind.INT, "INT0", initiation_interval=0)


class TestDrain:
    def test_completion_after_latency(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0")
        pipe.issue(10, warp_slot=3, inst=int_op(dest=0, latency=4))
        assert pipe.drain(13) == []
        done = pipe.drain(14)
        assert len(done) == 1
        slot, inst = done[0]
        assert slot == 3 and inst.dest == 0

    def test_drain_is_ordered_and_exhaustive(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0")
        pipe.issue(0, 0, int_op(dest=0, latency=8))
        pipe.issue(1, 1, int_op(dest=0, latency=2))
        done = pipe.drain(20)
        assert [slot for slot, _ in done] == [1, 0]
        assert pipe.drain(21) == []

    def test_next_completion_cycle(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0")
        assert pipe.next_state_change(0) is None
        pipe.issue(0, 0, int_op(dest=0, latency=4))
        assert pipe.next_state_change(0) == 4


class TestBusy:
    def test_idle_when_empty(self):
        pipe = ExecPipeline(ExecUnitKind.FP, "FP0")
        assert not pipe.is_busy(0)

    def test_busy_while_in_flight(self):
        pipe = ExecPipeline(ExecUnitKind.FP, "FP0")
        pipe.issue(0, 0, int_op(dest=0, latency=4, opcode="X"))
        for cycle in range(0, 4):
            pipe.drain(cycle)
            assert pipe.is_busy(cycle)
        pipe.drain(4)
        assert not pipe.is_busy(4)

    def test_busy_from_held_port(self):
        pipe = ExecPipeline(ExecUnitKind.SFU, "SFU", initiation_interval=8)
        pipe.issue(0, 0, sfu_op(dest=0, latency=2))
        pipe.drain(3)  # result exits at 2, but port held to 8
        assert pipe.is_busy(3)
        assert not pipe.is_busy(8)

    def test_in_flight_count(self):
        pipe = ExecPipeline(ExecUnitKind.INT, "INT0")
        pipe.issue(0, 0, int_op(dest=0))
        pipe.issue(1, 1, int_op(dest=0))
        assert len(pipe._in_flight) == 2
        pipe.drain(4)
        assert len(pipe._in_flight) == 1
