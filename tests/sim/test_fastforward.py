"""Span fast-forward: bit-identical to the cycle-by-cycle loop.

The forwarder's design rule is that every cycle on which anything
interesting can happen is stepped — idle *and* busy quiescent
spans alike are jumped; these tests pin the observable contract —
identical cycles, identical flat metrics, identical gating counters —
across every technique, and check the forwarder actually skips where
it should and disables itself where it must.
"""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

SCALE = 0.2


def _run(benchmark: str, technique: Technique, fast_forward: bool,
         scale: float = SCALE):
    kernel = build_kernel(benchmark, seed=0, scale=scale)
    sm = build_sm(kernel, TechniqueConfig(technique),
                  dram_latency=get_profile(benchmark).dram_latency,
                  fast_forward=fast_forward)
    return sm, sm.run()


@pytest.mark.parametrize("technique", list(Technique),
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_fast_forward_bit_identical(bench_name, technique):
    _, serial = _run(bench_name, technique, fast_forward=False)
    _, forwarded = _run(bench_name, technique, fast_forward=True)
    assert forwarded.cycles == serial.cycles
    assert forwarded.metrics == serial.metrics
    assert forwarded.domain_stats == serial.domain_stats
    assert forwarded.idle_detect_final == serial.idle_detect_final
    assert forwarded.pipeline_issues == serial.pipeline_issues
    assert forwarded.warp_records == serial.warp_records


def test_forwarder_actually_skips():
    for bench_name, technique in (("bfs", Technique.CONV_PG),
                                  ("hotspot", Technique.WARPED_GATES),
                                  ("bfs", Technique.WARPED_GATES)):
        sm, _ = _run(bench_name, technique, fast_forward=True)
        assert sm._forwarder is not None
        assert sm._forwarder.supported
        assert sm._forwarder.skipped_cycles > 0
        assert sm._forwarder.skips > 0


def test_serial_run_has_no_forwarder():
    sm, _ = _run("hotspot", Technique.BASELINE, fast_forward=False)
    assert sm._forwarder is None


def test_ccws_disables_forwarding():
    """The CCWS decay hook touches every cycle: no span is skippable,
    so the forwarder turns itself off rather than paying the planner."""
    sm, _ = _run("hotspot", Technique.CCWS_CONV_PG, fast_forward=True)
    assert sm._forwarder is not None
    assert not sm._forwarder.supported
    assert sm._forwarder.skipped_cycles == 0


def test_enabled_bus_suppresses_skipping():
    """Event subscribers see every cycle, so an enabled bus makes the
    dense kernel step every cycle (identical results, no skips)."""
    from repro.obs.bus import EventBus

    kernel = build_kernel("hotspot", seed=0, scale=SCALE)
    bus = EventBus(enabled=True)
    sm = build_sm(kernel, TechniqueConfig(Technique.CONV_PG),
                  dram_latency=get_profile("hotspot").dram_latency,
                  bus=bus, fast_forward=True)
    events = []
    bus.subscribe(events.append)
    result = sm.run()
    assert sm._forwarder.skipped_cycles == 0
    assert sm._kernel_core.cycles == result.cycles
    _, serial = _run("hotspot", Technique.CONV_PG, fast_forward=False)
    assert result.metrics == serial.metrics


def test_max_cycles_overrun_raises_identically():
    from dataclasses import replace

    from repro.sim.config import SMConfig

    config = replace(SMConfig(), max_cycles=50)
    errors = []
    for fast_forward in (False, True):
        sm = build_sm(build_kernel("hotspot", seed=0, scale=SCALE),
                      TechniqueConfig(Technique.CONV_PG),
                      sm_config=config,
                      dram_latency=get_profile("hotspot").dram_latency,
                      fast_forward=fast_forward)
        with pytest.raises(RuntimeError):
            sm.run()
        errors.append(sm.stats.cycles)
    assert errors[0] == errors[1]
