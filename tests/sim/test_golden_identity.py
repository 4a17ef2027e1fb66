"""Golden bit-identity suite: the optimized loop must not drift.

The busy-cycle rework (incremental ready-set scheduling, span-based
stats, the trace cache, the bus dispatch cache) is a pure-performance
change — every observable of a run must match the pre-optimization loop
bit for bit.  These tests recompute sha256 digests over the canonical
form of each golden cell (see :mod:`tests.sim.identity`) and compare
them to the committed references in ``tests/sim/golden/identity.json``.

A failure here means an optimization changed *behaviour*, not just
speed: a reordered RNG draw, a stats counter accumulated differently, a
scheduler tie broken the other way.  Fix the drift — only regenerate
the goldens (``PYTHONPATH=src:. python tests/sim/identity.py --write``)
for an intentional, reviewed behaviour change.
"""

from __future__ import annotations

import pytest

from tests.sim.identity import (GOLDEN_ABLATIONS, GOLDEN_BENCHMARKS,
                                GOLDEN_TECHNIQUES,
                                device_result_digest, event_stream_digest,
                                load_goldens, result_digest,
                                run_golden_cell, run_golden_device,
                                run_instrumented_golden, run_kernel_cell)

GOLDENS = load_goldens()

_CELLS = [(b, t) for b in GOLDEN_BENCHMARKS for t in GOLDEN_TECHNIQUES]


@pytest.mark.parametrize("bench_name,technique", _CELLS)
def test_result_digest_matches_golden(bench_name, technique):
    """Each technique x benchmark cell reproduces its committed digest."""
    result = run_golden_cell(bench_name, technique)
    assert result_digest(result) == GOLDENS[f"{bench_name}/{technique}"], (
        f"{technique} on {bench_name} drifted from the golden digest — "
        "an optimization changed observable behaviour")


@pytest.mark.parametrize("bench_name,technique", _CELLS)
def test_fast_forward_digest_matches_golden(bench_name, technique):
    """The stepping engine reproduces the serial digest.

    A fast-forward run skips quiet spans and steps every other cycle
    through the dense kernel.  The committed references were computed
    from the serial cycle loop, so this equality is the proof that span
    skipping and batched stepping change nothing observable — stats,
    gating counters, idle histograms, warp records, metrics.  The
    ``kernel/...`` entry is this run's own digest.
    """
    result = run_golden_cell(bench_name, technique, fast_forward=True)
    digest = result_digest(result)
    assert digest == GOLDENS[f"kernel/{bench_name}/{technique}"], (
        f"fast-forward {technique} on {bench_name} drifted from its "
        "committed digest")
    assert digest == GOLDENS[f"{bench_name}/{technique}"], (
        f"fast-forward {technique} on {bench_name} diverged from the "
        "serial core — a span was skipped across a state change")


@pytest.mark.parametrize("bench_name,technique", _CELLS)
def test_dense_kernel_digest_matches_golden(bench_name, technique):
    """The dense kernel stepping every cycle reproduces the digest.

    The span planner is switched off for the run, so every cycle of the
    fast-forward run goes through
    :class:`repro.sim.kernel.DenseStepKernel` — this pins batched
    classify/issue/writeback bit-identical to ``SM._step`` on every
    cycle, including the ones a skip would otherwise hide.
    """
    digest = result_digest(run_kernel_cell(bench_name, technique))
    assert digest == GOLDENS[f"kernel/{bench_name}/{technique}"], (
        f"dense-kernel {technique} on {bench_name} drifted from its "
        "committed digest")
    assert digest == GOLDENS[f"{bench_name}/{technique}"], (
        f"dense-kernel {technique} on {bench_name} diverged from the "
        "serial core — the batched step changed observable behaviour")


@pytest.mark.parametrize("bench_name,technique", _CELLS)
def test_device_digest_matches_golden(bench_name, technique):
    """Each cell at full-chip scale reproduces its committed digest.

    15 SMs on the pinned gtx480 preset, per-SM results digested in
    part order — drift in the splitter, the memory-side contention
    factor, or any one SM's simulation fails here with the cell named.
    """
    result = run_golden_device(bench_name, technique)
    digest = device_result_digest(result)
    assert digest == GOLDENS[f"device/{bench_name}/{technique}"], (
        f"device-scale {technique} on {bench_name} drifted from the "
        "golden digest")


@pytest.mark.parametrize("bench_name,technique", _CELLS)
def test_device_fast_forward_matches_golden(bench_name, technique):
    """Fast-forwarded device runs equal the serial device digests.

    Device parts carry few warps each (48 warps / 15 SMs), which is
    exactly the sparse regime where busy-span skipping is most
    aggressive — the strongest exercise of the span planner's
    eligibility rules.
    """
    result = run_golden_device(bench_name, technique, fast_forward=True)
    digest = device_result_digest(result)
    assert digest == GOLDENS[f"device/{bench_name}/{technique}"], (
        f"fast-forward device-scale {technique} on {bench_name} "
        "diverged from the serial device core")


_ABLATION_CELLS = [(b, t) for b in GOLDEN_BENCHMARKS
                   for t in GOLDEN_ABLATIONS]

#: Single-SM runs each ablation cell is pinned under: the serial
#: oracle, the stepping engine, and the engine with the dense kernel
#: stepping every cycle.
_CELL_MODES = {
    "serial": run_golden_cell,
    "fast_forward": lambda bench, tech: run_golden_cell(
        bench, tech, fast_forward=True),
    "kernel": run_kernel_cell,
}


@pytest.mark.parametrize("mode", list(_CELL_MODES))
@pytest.mark.parametrize("bench_name,technique", _ABLATION_CELLS)
def test_ablation_digest_matches_golden(bench_name, technique, mode):
    """The LRR, fetch-group and CCWS orderings reproduce their digests.

    The committed ``ablation/...`` references were computed serially;
    each run below must match them, so a change to one of these
    schedulers' ``order`` fails here even when it moves the serial and
    kernel paths together.
    """
    result = _CELL_MODES[mode](bench_name, technique)
    assert (result_digest(result)
            == GOLDENS[f"ablation/{bench_name}/{technique}"]), (
        f"{mode} {technique} on {bench_name} drifted from the golden "
        "digest")


#: Execution paths the instrumented golden run is pinned under: the
#: serial oracle and the stepping engine, which skips spans with the
#: bus on exactly as with it off.
_MODES = {"serial": {}, "fast_forward": {"fast_forward": True}}


@pytest.mark.parametrize("mode", list(_MODES))
def test_event_stream_matches_golden(mode):
    """Both execution paths publish the identical ordered event stream."""
    _, events = run_instrumented_golden(**_MODES[mode])
    assert events, "instrumented golden run published no events"
    assert (event_stream_digest(events)
            == GOLDENS["events/hotspot/warped_gates"]), (
        "the instrumented event stream drifted (order, payload, or "
        "count) from the golden digest")


@pytest.mark.parametrize("mode", list(_MODES))
def test_instrumented_result_equals_serial(mode):
    """Enabling the bus must not perturb the simulation itself.

    The instrumented run's result digest is committed twice on purpose:
    ``events/hotspot/warped_gates/result`` must equal the serial
    ``hotspot/warped_gates`` digest, proving observability is read-only
    on both execution paths.
    """
    result, _ = run_instrumented_golden(**_MODES[mode])
    digest = result_digest(result)
    assert digest == GOLDENS["events/hotspot/warped_gates/result"]
    assert digest == GOLDENS["hotspot/warped_gates"], (
        "bus-enabled and bus-disabled runs diverged — instrumentation "
        "is no longer zero-impact on simulation state")


@pytest.mark.parametrize("technique", GOLDEN_TECHNIQUES)
def test_spec_hash_matches_golden(technique):
    """Each golden technique's spec_hash reproduces its committed value.

    The spec hash keys the persistent run cache and the memoising
    runner, so a drift here silently orphans (or worse, mismatches)
    cached results even when the simulation itself is unchanged.
    """
    from repro.core.spec import technique_spec

    assert (technique_spec(technique).spec_hash()
            == GOLDENS[f"spec/{technique}"]), (
        f"{technique}'s canonical spec serialization drifted — cache "
        "keys and manifests no longer match prior sessions")
