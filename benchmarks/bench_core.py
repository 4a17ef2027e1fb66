"""Single-run busy-loop throughput: the hot-loop regression gate.

PR 2's engine made the *grid* fast (fan-out, fast-forward, caching);
this bench pins the orthogonal number that multiplies every sweep — how
many cycles/second ONE busy SM simulates, serially, with no
fast-forward and no cache.  Three rows:

* ``serial_baseline`` / ``serial_warped_gates`` — full
  ``run_benchmark`` wall time (trace build + cycle loop) on hotspot at
  scale 0.5, exactly how the pre-optimisation baselines below were
  measured, so the recorded ``speedup_vs_pre_pr`` is like-for-like;
* ``instrumented`` — the pure cycle loop (``sm.run`` only) with the
  event bus off vs on, isolating observability overhead from workload
  construction.

Rates land in ``BENCH_core.json`` at the repo root (latest snapshot)
and are appended to ``BENCH_history.jsonl`` (full trajectory with git
sha — see :mod:`history`); each gate also compares against the last
recorded history entry.  The gates are CI's single-run throughput
regression net (warn-don't-die: the workflow step tolerates a failure
and surfaces a ``::warning``).  On a gate failure a cProfile summary of
the warped-gates loop is written to ``bench_core_profile.txt`` so the
regression's hot spots travel with the CI artifact.
"""

import cProfile
import io
import json
import pstats
import time
from pathlib import Path

from repro.core.techniques import Technique, build_sm, run_benchmark
from repro.obs.bus import EventBus
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

import history
from conftest import print_figure

SCALE = 0.5
BENCHMARK = "hotspot"
SEED = 0

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_core.json"
PROFILE_PATH = REPO_ROOT / "bench_core_profile.txt"

#: Pre-optimisation serial rates (cycles/sec, best-of-5 ``run_benchmark``
#: wall time on the reference dev container, hotspot at scale 0.5) —
#: the denominators for the recorded speedups.  The hot-loop rework
#: targets >= 2x against these.
PRE_PR_CYCLES_PER_SEC = {
    "baseline": 16322.0,
    "warped_gates": 12570.0,
}

#: CI regression gates.  Shared runners differ from the reference
#: container, so the speedup gate keeps a 15% noise allowance and the
#: workflow treats a failure as a warning, not a hard stop.
MIN_SPEEDUP = 2.0
SPEEDUP_TOLERANCE = 0.85

#: Dense-regime row (``dense_single_sm``): bfs at full scale issues
#: on most cycles, so span skipping finds little and the dense-step
#: kernel (:mod:`repro.sim.kernel`) steps the rest.
DENSE_BENCHMARK = "bfs"
DENSE_SCALE = 1.0
#: Serial rate on the dense workload before the kernel existed
#: (best-of-5 on the reference container) — the fast-forward engine
#: targets >= 1.5x against it.
PRE_PR_DENSE_CYCLES_PER_SEC = 25_510.0
MIN_DENSE_SPEEDUP = 1.5
#: The fast-forward floor: the engine must also beat the fast-forward
#: rate measured before the kernel existed.
PRE_PR_DENSE_FF_CYCLES_PER_SEC = 28_543.0
#: Bus-enabled loop overhead target (fraction of the plain-loop rate).
MAX_INSTRUMENTED_OVERHEAD = 0.10
OVERHEAD_TOLERANCE = 0.05


def _serial_rate(technique: Technique, rounds: int = 5) -> tuple:
    """Best-of-N full-run rate (trace build + loop), pre-PR-comparable."""
    best = 0.0
    cycles = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_benchmark(BENCHMARK, technique, seed=SEED, scale=SCALE)
        elapsed = time.perf_counter() - start
        cycles = result.cycles
        rate = cycles / elapsed
        if rate > best:
            best = rate
    return best, cycles


def _build_loop_sm(instrumented: bool):
    kernel = build_kernel(BENCHMARK, seed=SEED, scale=SCALE)
    bus = EventBus(enabled=True) if instrumented else None
    sm = build_sm(kernel, Technique.WARPED_GATES,
                  dram_latency=get_profile(BENCHMARK).dram_latency,
                  bus=bus)
    if instrumented:
        sink = []
        bus.subscribe(sink.append)
    return sm


def _loop_rate(instrumented: bool, rounds: int = 7) -> float:
    """Best-of-N pure cycle-loop rate (``sm.run`` only)."""
    best = 0.0
    for _ in range(rounds):
        sm = _build_loop_sm(instrumented)
        start = time.perf_counter()
        result = sm.run()
        elapsed = time.perf_counter() - start
        rate = result.cycles / elapsed
        if rate > best:
            best = rate
    return best


def _record(name: str, row: dict):
    """Snapshot into BENCH_core.json and append to the history file.

    Returns the *previous* history entry for this row (None on first
    run) so callers can gate against the last recorded measurement.
    """
    document = {}
    if RESULTS_PATH.exists():
        try:
            document = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            document = {}
    document[name] = row
    RESULTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True),
                            encoding="utf-8")
    rates = {key: value for key, value in row.items()
             if key.endswith("_per_sec") and not key.startswith("pre_pr")}
    config = {key: value for key, value in row.items()
              if key not in rates}
    return history.record_rates("core", name, rates=rates, config=config)


def _write_profile() -> None:
    """Dump the warped-gates loop's cProfile top-20 for the CI artifact."""
    sm = _build_loop_sm(instrumented=False)
    profiler = cProfile.Profile()
    profiler.enable()
    sm.run()
    profiler.disable()
    sink = io.StringIO()
    pstats.Stats(profiler, stream=sink).sort_stats("cumulative") \
        .print_stats(20)
    PROFILE_PATH.write_text(sink.getvalue(), encoding="utf-8")


def _gate(name: str, ok: bool, message: str) -> None:
    if ok:
        return
    _write_profile()
    raise AssertionError(f"{name}: {message} "
                         f"(profile written to {PROFILE_PATH.name})")


def _serial_row(benchmark, technique: Technique, key: str) -> None:
    rate, cycles = _serial_rate(technique)
    # pytest-benchmark records the official timing; the gate uses the
    # in-process best-of-N above so both appear in the bench output.
    benchmark.pedantic(run_benchmark,
                       args=(BENCHMARK, technique),
                       kwargs={"seed": SEED, "scale": SCALE},
                       rounds=3, iterations=1, warmup_rounds=1)
    speedup = rate / PRE_PR_CYCLES_PER_SEC[key]
    print_figure(f"CORE/serial_{key}",
                 f"{cycles} cycles at {rate:,.0f} cycles/s "
                 f"({speedup:.2f}x vs pre-PR "
                 f"{PRE_PR_CYCLES_PER_SEC[key]:,.0f})")
    previous = _record(f"serial_{key}", {
        "benchmark": BENCHMARK, "scale": SCALE, "cycles": cycles,
        "cycles_per_sec": round(rate, 1),
        "pre_pr_cycles_per_sec": PRE_PR_CYCLES_PER_SEC[key],
        "speedup_vs_pre_pr": round(speedup, 2),
    })
    _gate(f"serial_{key}",
          speedup >= MIN_SPEEDUP * SPEEDUP_TOLERANCE,
          f"single-run throughput {rate:,.0f} cycles/s is "
          f"{speedup:.2f}x the pre-PR rate; gate is "
          f">= {MIN_SPEEDUP}x (with {SPEEDUP_TOLERANCE:.0%} tolerance)")
    history_ok, message = history.check_against_previous(
        previous, "cycles_per_sec", rate)
    _gate(f"serial_{key}", history_ok, f"vs history: {message}")


def test_core_serial_baseline(benchmark):
    """Ungated busy loop — the cheapest configuration's ceiling."""
    _serial_row(benchmark, Technique.BASELINE, "baseline")


def test_core_serial_warped_gates(benchmark):
    """Fully gated + adaptive configuration — the paper's main subject."""
    _serial_row(benchmark, Technique.WARPED_GATES, "warped_gates")


def _dense_rate(rounds: int = 5, **run_kwargs) -> tuple:
    """Best-of-N full-run rate on the dense workload."""
    best = 0.0
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_benchmark(DENSE_BENCHMARK,
                               Technique.WARPED_GATES,
                               seed=SEED, scale=DENSE_SCALE, **run_kwargs)
        elapsed = time.perf_counter() - start
        rate = result.cycles / elapsed
        if rate > best:
            best = rate
    return best, result


def test_core_dense_single_sm(benchmark):
    """Dense-regime throughput of the fast-forward engine.

    One rate: ``fast_forward=True``, where the span planner skips what
    it can and the dense kernel steps every other cycle.  It must clear
    both the kernel's speedup gate and the pre-kernel fast-forward
    floor.
    """
    benchmark.pedantic(
        run_benchmark,
        args=(DENSE_BENCHMARK, Technique.WARPED_GATES),
        kwargs={"seed": SEED, "scale": DENSE_SCALE, "fast_forward": True},
        rounds=3, iterations=1, warmup_rounds=1)
    rate, result = _dense_rate(fast_forward=True)
    speedup = rate / PRE_PR_DENSE_CYCLES_PER_SEC
    print_figure(
        "CORE/dense_single_sm",
        f"{result.cycles} cycles: fast-forward engine "
        f"{rate:,.0f} cycles/s ({speedup:.2f}x vs pre-PR "
        f"{PRE_PR_DENSE_CYCLES_PER_SEC:,.0f}; "
        f"planner_overhead={result.stats.planner_overhead_cycles})")
    previous = _record("dense_single_sm", {
        "benchmark": DENSE_BENCHMARK, "scale": DENSE_SCALE,
        "technique": "warped_gates", "best_of": 5,
        "cycles": result.cycles,
        "engine_cycles_per_sec": round(rate, 1),
        "planner_overhead_cycles": result.stats.planner_overhead_cycles,
        "pre_pr_cycles_per_sec": PRE_PR_DENSE_CYCLES_PER_SEC,
        "speedup_vs_pre_pr": round(speedup, 2),
    })
    _gate("dense_single_sm",
          speedup >= MIN_DENSE_SPEEDUP * SPEEDUP_TOLERANCE,
          f"fast-forward engine throughput {rate:,.0f} cycles/s is "
          f"{speedup:.2f}x the pre-PR dense rate; gate is "
          f">= {MIN_DENSE_SPEEDUP}x "
          f"(with {SPEEDUP_TOLERANCE:.0%} tolerance)")
    _gate("dense_single_sm",
          rate >= PRE_PR_DENSE_FF_CYCLES_PER_SEC * SPEEDUP_TOLERANCE,
          f"fast-forward engine rate {rate:,.0f} cycles/s fell "
          f"below the pre-PR fast-forward rate "
          f"{PRE_PR_DENSE_FF_CYCLES_PER_SEC:,.0f} "
          f"(with {SPEEDUP_TOLERANCE:.0%} tolerance)")
    history_ok, message = history.check_against_previous(
        previous, "engine_cycles_per_sec", rate)
    _gate("dense_single_sm", history_ok, f"vs history: {message}")


def test_core_instrumented_overhead(benchmark):
    """Event-bus-enabled loop must stay within the overhead budget."""
    # pytest-benchmark records the bus-enabled loop as the tracked row
    # (setup builds the SM outside the timer); the gate below compares
    # in-process best-of-N rates so both sides see identical noise.
    benchmark.pedantic(lambda sm: sm.run(),
                       setup=lambda: ((_build_loop_sm(True),), {}),
                       rounds=3, iterations=1)
    plain = _loop_rate(instrumented=False)
    instrumented = _loop_rate(instrumented=True)
    overhead = 1.0 - instrumented / plain
    print_figure("CORE/instrumented",
                 f"plain {plain:,.0f} cycles/s, bus-enabled "
                 f"{instrumented:,.0f} cycles/s "
                 f"({overhead:.1%} overhead)")
    previous = _record("instrumented", {
        "benchmark": BENCHMARK, "scale": SCALE,
        "plain_cycles_per_sec": round(plain, 1),
        "instrumented_cycles_per_sec": round(instrumented, 1),
        "overhead_pct": round(100 * overhead, 1),
    })
    _gate("instrumented",
          overhead <= MAX_INSTRUMENTED_OVERHEAD + OVERHEAD_TOLERANCE,
          f"bus-enabled overhead {overhead:.1%} exceeds the "
          f"{MAX_INSTRUMENTED_OVERHEAD:.0%} target "
          f"(+{OVERHEAD_TOLERANCE:.0%} noise allowance)")
    history_ok, message = history.check_against_previous(
        previous, "instrumented_cycles_per_sec", instrumented)
    _gate("instrumented", history_ok, f"vs history: {message}")
