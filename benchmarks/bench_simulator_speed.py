"""Simulator throughput: simulated cycles per wall-clock second.

Not a paper figure — the standard housekeeping number any simulator
release reports.  Measures the cycle model's speed on a standard
workload under the cheapest (baseline) and most instrumented (Warped
Gates) configurations, with real multi-round statistics (this is the
one bench where pytest-benchmark's repetition machinery earns its keep,
since the measured function is fast and deterministic).

The two default rows step every cycle through the serial ``_step``
oracle (the library default, ``fast_forward=False``) on a disabled
bus, so comparing them against historical numbers checks the no-op
fast path stays free.  The observability row is the path
``repro run --emit-events`` takes: the same Warped Gates run on the
fast-forward engine (``fast_forward=True``, as ``cmd_run`` builds it)
with an *enabled* event bus feeding a subscriber.  It is therefore not
comparable with the serial rows, nor with its own entries recorded
before it switched to the fast-forward engine.

Each measured rate is also appended to ``BENCH_obs.json`` at the repo
root, giving CI and future performance PRs a machine-readable
cycles/sec record instead of scraping the pytest-benchmark banner.
"""

import json
from pathlib import Path

from repro.core.techniques import Technique, build_sm
from repro.obs.bus import EventBus
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from conftest import print_figure

BENCH = "hotspot"
SCALE = 0.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def run_once(technique: Technique, instrumented: bool = False) -> int:
    kernel = build_kernel(BENCH, scale=SCALE)
    bus = EventBus(enabled=True) if instrumented else None
    sm = build_sm(kernel, technique,
                  dram_latency=get_profile(BENCH).dram_latency, bus=bus,
                  fast_forward=instrumented)
    if instrumented:
        events = []
        sm.bus.subscribe(events.append)
    return sm.run().cycles


def record_rate(name: str, cycles: int, rate: float) -> None:
    """Merge one measured rate into BENCH_obs.json."""
    document = {}
    if RESULTS_PATH.exists():
        try:
            document = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            document = {}
    document[name] = {"benchmark": BENCH, "scale": SCALE,
                      "cycles": cycles, "cycles_per_sec": round(rate, 1)}
    RESULTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True),
                            encoding="utf-8")


def _measure(benchmark, name: str, technique: Technique,
             instrumented: bool = False) -> None:
    # Best-of-N over >=5 rounds: the mean of 3 rounds was noisy enough
    # for the instrumented row to occasionally beat the uninstrumented
    # one; the minimum is the standard low-noise estimator for a
    # deterministic workload (least OS/GC interference).
    cycles = benchmark.pedantic(run_once, args=(technique, instrumented),
                                rounds=5, iterations=1, warmup_rounds=1)
    rate = cycles / benchmark.stats.stats.min
    print_figure(f"SPEED/{name}",
                 f"{cycles} simulated cycles at {rate:,.0f} cycles/s")
    record_rate(name, cycles, rate)
    assert rate > 1_000  # sanity floor: a regression to <1k cyc/s is a bug


def test_speed_baseline(benchmark):
    _measure(benchmark, "baseline", Technique.BASELINE)


def test_speed_warped_gates(benchmark):
    _measure(benchmark, "warped_gates", Technique.WARPED_GATES)


def test_speed_warped_gates_instrumented(benchmark):
    """Warped Gates as ``run --emit-events`` runs it: fast-forward, with
    the event bus enabled and one subscriber."""
    _measure(benchmark, "warped_gates_instrumented",
             Technique.WARPED_GATES, instrumented=True)
