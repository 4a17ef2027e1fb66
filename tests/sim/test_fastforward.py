"""Span fast-forward: bit-identical to the cycle-by-cycle loop.

The forwarder's design rule is that every cycle on which anything
interesting can happen is stepped — idle *and* busy quiescent
spans alike are jumped; these tests pin the observable contract —
identical cycles, identical flat metrics, identical gating counters —
across every technique, and check the forwarder actually skips where
it should and disables itself where it must.
"""

import pytest

from repro.core.spec import technique_names
from repro.core.techniques import Technique, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

SCALE = 0.2


def _run(benchmark: str, technique: Technique, fast_forward: bool,
         scale: float = SCALE):
    kernel = build_kernel(benchmark, seed=0, scale=scale)
    sm = build_sm(kernel, technique,
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
    assert forwarded.warp_rows == serial.warp_rows


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


@pytest.mark.parametrize("technique", technique_names())
def test_every_technique_fast_forwards(technique):
    """Every registered technique's scheduler and hooks let the planner
    skip spans, and the skipping run returns the serial oracle's
    canonical result."""
    from repro.core.digest import canonical_result

    _, serial = _run("bfs", technique, fast_forward=False)
    sm, forwarded = _run("bfs", technique, fast_forward=True)
    assert sm._forwarder.supported
    assert sm._forwarder.skipped_cycles > 0
    assert canonical_result(forwarded) == canonical_result(serial)


def _run_observed(benchmark: str, technique: Technique,
                  fast_forward: bool):
    """One run on an enabled bus; (sm, result, events)."""
    from repro.obs.bus import EventBus

    bus = EventBus(enabled=True)
    events = []
    bus.subscribe(events.append)
    sm = build_sm(build_kernel(benchmark, seed=0, scale=SCALE),
                  technique,
                  dram_latency=get_profile(benchmark).dram_latency,
                  bus=bus, fast_forward=fast_forward)
    return sm, sm.run(), events


@pytest.mark.parametrize("technique",
                         (Technique.WARPED_GATES, Technique.CONV_PG),
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench_name", ("gaussian", "NN", "nw", "bfs"))
def test_enabled_bus_skips_with_serial_events(bench_name, technique):
    """An enabled bus does not stop span skipping: a skipped span
    publishes its no-ready-warp stalls, so the bus-on fast-forward run
    publishes the serial event stream and returns the serial result."""
    from repro.core.digest import canonical_result, event_stream_digest

    _, serial, serial_events = _run_observed(bench_name, technique, False)
    sm, forwarded, events = _run_observed(bench_name, technique, True)
    assert sm._forwarder.skipped_cycles > 0
    assert event_stream_digest(events) \
        == event_stream_digest(serial_events)
    assert canonical_result(forwarded) == canonical_result(serial)


def test_max_cycles_overrun_raises_identically():
    from dataclasses import replace

    from repro.sim.config import SMConfig

    config = replace(SMConfig(), max_cycles=50)
    errors = []
    for fast_forward in (False, True):
        sm = build_sm(build_kernel("hotspot", seed=0, scale=SCALE),
                      Technique.CONV_PG,
                      sm_config=config,
                      dram_latency=get_profile("hotspot").dram_latency,
                      fast_forward=fast_forward)
        with pytest.raises(RuntimeError):
            sm.run()
        errors.append(sm.stats.cycles)
    assert errors[0] == errors[1]


def _mshr_config(entries: int):
    from dataclasses import replace

    from repro.sim.config import SMConfig

    base = SMConfig()
    return replace(base, memory=replace(base.memory, mshr_entries=entries))


def _mshr_cases():
    """Every registered technique on each memory-bound benchmark, with
    the MSHR file size cycling through 1-4 entries across techniques
    and shifting by three per benchmark, so each technique meets three
    different sizes."""
    return [(bench, technique, 1 + (3 * b + t) % 4)
            for b, bench in enumerate(("bfs", "lbm", "MUM"))
            for t, technique in enumerate(technique_names())]


@pytest.mark.parametrize("bench_name,technique,mshr_entries", _mshr_cases())
def test_mshr_stalled_spans_skip_with_serial_results(bench_name, technique,
                                                     mshr_entries):
    """A tiny MSHR file latches retries for most of the run.  Spans
    whose only ready heads are LDST instructions held by the retry are
    skipped, and serial and fast-forward runs, bus on and off, still
    agree on the canonical result and the event stream."""
    from repro.core.digest import canonical_result, event_stream_digest
    from repro.obs.bus import EventBus
    from repro.sim.fastforward import SpanFastForwarder

    kernel = build_kernel(bench_name, seed=0, scale=0.1)
    config = _mshr_config(mshr_entries)
    latched = [0]
    apply = SpanFastForwarder._apply

    def spy(forwarder, cycle, target):
        if forwarder.sm._retry:
            latched[0] += target - cycle
        apply(forwarder, cycle, target)

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpanFastForwarder, "_apply", spy)
        for fast_forward in (False, True):
            for observed in (False, True):
                bus = EventBus(enabled=observed)
                events = []
                bus.subscribe(events.append)
                sm = build_sm(kernel, technique, sm_config=config,
                              dram_latency=get_profile(bench_name)
                              .dram_latency,
                              bus=bus, fast_forward=fast_forward)
                runs[fast_forward, observed] = (
                    canonical_result(sm.run()),
                    event_stream_digest(events))
    serial, serial_events = runs[False, True]
    assert serial_events != event_stream_digest([])
    for (fast_forward, observed), (result, events) in runs.items():
        assert result == serial
        if observed:
            assert events == serial_events
    if sm._forwarder.supported:
        assert sm.memory.stats.mshr_stalls > 0
        assert latched[0] > 0


def test_empty_warp_is_released_on_the_serial_cycle():
    """A zero-instruction warp finishes the moment it launches; the
    cycle after its launch frees its slot, so the planner must step it
    even though no head, fetch or pipeline event marks it."""
    from repro.core.digest import canonical_result
    from repro.isa.instructions import int_op, load_op
    from repro.isa.trace import KernelTrace, WarpTrace

    loads = tuple(load_op(dest=j % 4, line_addr=j) for j in range(4))
    uses = tuple(int_op(dest=4, srcs=(j % 4,)) for j in range(4))
    kernel = KernelTrace(name="k", max_resident_warps=1, warps=(
        WarpTrace(0, loads + uses), WarpTrace(1, ()),
        WarpTrace(2, loads + uses)))
    results = [canonical_result(build_sm(
        kernel, "baseline", fast_forward=fast_forward).run())
        for fast_forward in (False, True)]
    assert results[0] == results[1]
