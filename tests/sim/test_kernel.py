"""Dense-step kernel: the stepping engine's loop, sync and equality.

The golden identity suite pins whole fast-forward runs bit-identical;
these tests exercise the engine's moving parts directly — a fast-forward
run never reaching ``_step``, chopping the loop at arbitrary cycles, a
drain inside a call, and kernel cycles interleaved with serial steps.
"""

from unittest import mock

import pytest

from repro.core.techniques import Technique, build_sm
from repro.sim.fastforward import SpanFastForwarder
from repro.sim.kernel import DenseStepKernel
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import canonical_result

SCALE = 0.2


def _build(benchmark: str, technique: Technique, **kwargs):
    kernel = build_kernel(benchmark, seed=0, scale=SCALE)
    return build_sm(kernel, technique,
                    dram_latency=get_profile(benchmark).dram_latency,
                    **kwargs)


def _serial_result(benchmark: str, technique: Technique):
    return _build(benchmark, technique).run()


def _prepared(benchmark: str, technique: Technique):
    """An SM ready to be driven by a kernel core directly."""
    sm = _build(benchmark, technique)
    sm._ran = True
    sm.scheduler.reset()
    sm._prepare()
    return sm


@pytest.mark.parametrize("technique",
                         (Technique.BASELINE, Technique.WARPED_GATES),
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_forced_kernel_bit_identical(bench_name, technique):
    """With the span planner reporting itself unsupported, every
    cycle of the fast-forward run goes through the kernel."""
    serial = _serial_result(bench_name, technique)
    sm = _build(bench_name, technique, fast_forward=True)
    with mock.patch.object(SpanFastForwarder, "_check_supported",
                           return_value=False):
        forced = sm.run()
    assert sm._kernel_core.cycles == forced.cycles
    assert sm._forwarder.skipped_cycles == 0
    assert forced.cycles == serial.cycles
    assert forced.metrics == serial.metrics
    assert forced.domain_stats == serial.domain_stats
    assert forced.warp_rows == serial.warp_rows
    assert canonical_result(forced) == canonical_result(serial)


@pytest.mark.parametrize("bench_name", ("hotspot", "bfs", "gaussian"))
def test_fast_forward_never_calls_step(bench_name, monkeypatch):
    """Every cycle of a fast-forward run is either skipped or stepped by
    the kernel; the serial ``_step`` is the oracle only."""
    sm = _build(bench_name, Technique.WARPED_GATES, fast_forward=True)

    def forbidden(cycle):
        raise AssertionError(f"_step called at cycle {cycle}")

    monkeypatch.setattr(sm, "_step", forbidden)
    result = sm.run()
    assert (sm._kernel_core.cycles + sm._forwarder.skipped_cycles
            == result.cycles)
    assert sm._kernel_core.cycles > 0
    assert sm._forwarder.skipped_cycles > 0
    assert canonical_result(result) == canonical_result(
        _serial_result(bench_name, Technique.WARPED_GATES))


def test_window_boundaries_are_invisible():
    """Many short ``run`` calls equal one long one equal the serial run.

    The kernel's state persists between calls and a skip may overshoot
    a call's end, so chopping the loop at arbitrary cycles must not
    change anything.
    """
    serial = canonical_result(_serial_result("bfs", Technique.GATES))
    sm = _prepared("bfs", Technique.GATES)
    core = DenseStepKernel(sm)
    forwarder = SpanFastForwarder(sm, core)
    cycle = 0
    calls = 0
    while not sm._drained():
        cycle = core.run(cycle, cycle + 97, forwarder)
        calls += 1
    assert calls > 1
    assert forwarder.skipped_cycles > 0
    assert core.cycles + forwarder.skipped_cycles == cycle
    assert canonical_result(sm._collect(cycle)) == serial


def test_drain_stops_window_early():
    """A call whose end lies past the drain point returns at the drain
    cycle."""
    expected = _serial_result("hotspot", Technique.BASELINE).cycles
    sm = _prepared("hotspot", Technique.BASELINE)
    core = DenseStepKernel(sm)
    forwarder = SpanFastForwarder(sm, core)
    end = core.run(0, expected + 10_000, forwarder)
    assert sm._drained()
    assert end == expected
    assert core.cycles + forwarder.skipped_cycles == expected


def test_kernel_windows_interleave_with_serial_stepping():
    """Kernel cycles and serial ``_step`` calls compose to the same run.

    A serial step moves heads behind the kernel's back, so each kernel
    stretch starts unsynced; the kernel's full resync (the one a
    residency change triggers) must rebuild its state from any mid-run
    cycle.
    """
    serial = canonical_result(_serial_result("bfs", Technique.CONV_PG))
    sm = _prepared("bfs", Technique.CONV_PG)
    core = DenseStepKernel(sm)
    cycle = 0
    turn = 0
    while not sm._drained():
        core._synced_resident = None
        for _ in range(64):
            if sm._drained():
                break
            if turn % 2:
                core._cycle(cycle)
            else:
                sm._step(cycle)
            cycle += 1
        turn += 1
    assert turn > 2
    assert canonical_result(sm._collect(cycle)) == serial


def test_planner_overhead_not_in_metrics():
    """planner_overhead_cycles stays out of the digested metrics so
    fast-forwarded runs keep the serial digest."""
    sm = _build("bfs", Technique.CONV_PG, fast_forward=True)
    result = sm.run()
    assert not any("planner" in key for key in result.metrics)
