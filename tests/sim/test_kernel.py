"""Dense-step kernel: windowing, resync and equality unit tests.

The golden identity suite pins whole forced-kernel runs bit-identical;
these tests exercise the kernel's moving parts directly — window
boundaries, drain inside a window, interleaving kernel windows with
serial stepping — and the fast-forward planner's adaptive handoff into
dense mode.
"""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, build_sm
from repro.sim.fastforward import PLAN_BACKOFF_CAP
from repro.sim.kernel import DenseStepKernel
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import canonical_result

SCALE = 0.2


def _build(benchmark: str, technique: Technique, **kwargs):
    kernel = build_kernel(benchmark, seed=0, scale=SCALE)
    return build_sm(kernel, TechniqueConfig(technique),
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
    serial = _serial_result(bench_name, technique)
    forced = _build(bench_name, technique, dense_kernel=True).run()
    assert forced.cycles == serial.cycles
    assert forced.metrics == serial.metrics
    assert forced.domain_stats == serial.domain_stats
    assert forced.warp_records == serial.warp_records
    assert canonical_result(forced) == canonical_result(serial)


def test_window_boundaries_are_invisible():
    """Many short windows equal one long window equal the serial run.

    Every window entry does a full resync from the live SM state, so
    chopping the run into arbitrary windows must not change anything.
    """
    serial = canonical_result(_serial_result("bfs", Technique.GATES))
    sm = _prepared("bfs", Technique.GATES)
    core = DenseStepKernel(sm)
    cycle = 0
    while not sm._drained():
        cycle = core.run_window(cycle, cycle + 97)
    assert core.windows > 1
    assert canonical_result(sm._collect(cycle)) == serial


def test_drain_stops_window_early():
    """A window past the drain point returns at the drain cycle."""
    expected = _serial_result("hotspot", Technique.BASELINE).cycles
    sm = _prepared("hotspot", Technique.BASELINE)
    core = DenseStepKernel(sm)
    end = core.run_window(0, expected + 10_000)
    assert sm._drained()
    assert end == expected
    assert core.cycles == expected


def test_kernel_windows_interleave_with_serial_stepping():
    """Kernel windows and serial steps compose to the same run.

    This is the fast-forward handoff shape: some cycles stepped by the
    serial loop, some handed to the kernel, resyncing each time.
    """
    serial = canonical_result(_serial_result("bfs", Technique.CONV_PG))
    sm = _prepared("bfs", Technique.CONV_PG)
    core = DenseStepKernel(sm)
    cycle = 0
    turn = 0
    while not sm._drained():
        if turn % 2:
            cycle = core.run_window(cycle, cycle + 64)
        else:
            for _ in range(64):
                if sm._drained():
                    break
                sm._step(cycle)
                cycle += 1
        turn += 1
    assert canonical_result(sm._collect(cycle)) == serial


def test_dense_kernel_false_forbids_handoff():
    """``dense_kernel=False`` keeps the forwarder out of dense mode."""
    sm = _build("bfs", Technique.WARPED_GATES, fast_forward=True,
                dense_kernel=False)
    result = sm.run()
    assert sm._forwarder is not None
    assert sm._forwarder.kernel is None
    assert sm._forwarder.dense_windows == 0
    assert canonical_result(result) == canonical_result(
        _serial_result("bfs", Technique.WARPED_GATES))


def test_forwarder_hands_dense_regime_to_kernel():
    """On a dense workload the planner escalates backoff, then hands
    whole windows to the kernel, and still matches the serial run."""
    kernel = build_kernel("bfs", seed=0, scale=1.0)
    serial_sm = build_sm(kernel, TechniqueConfig(Technique.WARPED_GATES),
                         dram_latency=get_profile("bfs").dram_latency)
    serial = canonical_result(serial_sm.run())
    ff_sm = build_sm(build_kernel("bfs", seed=0, scale=1.0),
                     TechniqueConfig(Technique.WARPED_GATES),
                     dram_latency=get_profile("bfs").dram_latency,
                     fast_forward=True)
    result = ff_sm.run()
    forwarder = ff_sm._forwarder
    assert canonical_result(result) == serial
    assert forwarder.dense_windows > 0
    assert forwarder.kernel is not None
    assert forwarder.kernel.cycles > 0
    assert result.stats.planner_overhead_cycles > 0
    # The adaptive cap escalated beyond the floor on the way there.
    assert forwarder._backoff_cap > PLAN_BACKOFF_CAP


def test_planner_overhead_not_in_metrics():
    """planner_overhead_cycles stays out of the digested metrics so
    fast-forwarded runs keep the serial digest."""
    sm = _build("bfs", Technique.CONV_PG, fast_forward=True)
    result = sm.run()
    assert not any("planner" in key for key in result.metrics)
