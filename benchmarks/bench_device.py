"""Device-scale throughput and integration checks (15-SM GTX480).

Two jobs:

* ``device_scale`` row — the event-driven span core's headline number
  at full-chip configuration: aggregate simulated cycles/second over
  all 15 SMs of the ``gtx480`` preset (bfs at scale 1.0, warped gates,
  fast-forward on), the fraction of cycles real-stepped vs skipped as
  provably-quiescent spans, and the same pair for a single full SM.
  Recorded into ``BENCH_core.json`` + ``BENCH_history.jsonl`` next to
  the single-SM hot-loop rows; gated warn-don't-die in CI.  The gate
  passes when the device run either doubles the pre-change aggregate
  rate or skips at least half of all cycles — sparse per-SM occupancy
  (48 warps / 15 SMs) is exactly the regime busy-span skipping was
  built for, so the skip fraction is the primary signal.  On failure a
  cProfile top-20 lands in ``bench_device_profile.txt``.

* The device-level integration table (baseline vs warped gates over
  three benchmarks) — the sanity net that device savings and runtime
  track the per-SM story.
"""

import cProfile
import io
import pstats
import time
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.device import device_preset
from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ExecUnitKind
from repro.sim.gpu import GPU, split_kernel
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

import history
from conftest import print_figure
from bench_core import _record

N_SMS = 15
BENCHMARKS = ("srad", "lbm", "hotspot")

DEVICE_BENCHMARK = "bfs"
DEVICE_SCALE = 1.0
SEED = 0

REPO_ROOT = Path(__file__).resolve().parent.parent
PROFILE_PATH = REPO_ROOT / "bench_device_profile.txt"

#: Pre-change rates (idle-only fast-forward core, best-of-N on the
#: reference dev container; matches the seeded ``device_scale`` history
#: entry).  The aggregate device rate sums simulated cycles across all
#: 15 SM parts; ``real_stepped`` is the fraction of those cycles the
#: cycle loop actually executed (the rest were skipped spans).
PRE_CHANGE_DEVICE_CYCLES_PER_SEC = 116_409.0
PRE_CHANGE_SINGLE_SM_CYCLES_PER_SEC = 28_543.0

#: Acceptance gate: the span core must either double the pre-change
#: aggregate rate (15% runner-noise allowance) or prove at least half
#: of all device cycles quiescent and skip them.
MIN_DEVICE_SPEEDUP = 2.0
SPEEDUP_TOLERANCE = 0.85
MIN_SKIPPED_FRACTION = 0.5


def _build_device_sms():
    """The 15 per-part SMs of one gtx480 warped-gates launch."""
    preset = device_preset("gtx480")
    kernel = build_kernel(DEVICE_BENCHMARK, seed=SEED, scale=DEVICE_SCALE)
    parts = split_kernel(kernel, preset.n_sms)
    dram = preset.memory_side.effective_dram_latency(
        get_profile(DEVICE_BENCHMARK).dram_latency, len(parts))
    return [build_sm(part, Technique.WARPED_GATES,
                     sm_config=preset.sm, dram_latency=dram,
                     fast_forward=True)
            for part in parts]


def _build_single_sm():
    kernel = build_kernel(DEVICE_BENCHMARK, seed=SEED, scale=DEVICE_SCALE)
    return build_sm(kernel, Technique.WARPED_GATES,
                    dram_latency=get_profile(DEVICE_BENCHMARK).dram_latency,
                    fast_forward=True)


def _run_sms(sms):
    """Run the SMs serially; return (agg rate, total, real-stepped)."""
    start = time.perf_counter()
    results = [sm.run() for sm in sms]
    elapsed = time.perf_counter() - start
    total_cycles = sum(r.stats.cycles for r in results)
    skipped = sum(sm._forwarder.skipped_cycles for sm in sms
                  if sm._forwarder is not None)
    real_stepped = (total_cycles - skipped) / total_cycles \
        if total_cycles else 1.0
    return total_cycles / elapsed, total_cycles, real_stepped


#: Timing rounds per measurement — the recorded rate is the best of
#: these, which filters scheduler noise on shared CI runners.
BEST_OF_ROUNDS = 5


def _best_of(build, rounds: int = BEST_OF_ROUNDS):
    best_rate, total, real_stepped = 0.0, 0, 1.0
    for _ in range(rounds):
        rate, cycles, stepped = _run_sms(build())
        if rate > best_rate:
            best_rate, total, real_stepped = rate, cycles, stepped
    return best_rate, total, real_stepped


def _write_profile() -> None:
    """cProfile top-20 of one full device launch, for the CI artifact."""
    sms = _build_device_sms()
    profiler = cProfile.Profile()
    profiler.enable()
    for sm in sms:
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


def test_device_scale_rate(benchmark):
    """Aggregate device throughput + skip coverage of the span core."""
    benchmark.pedantic(lambda sms: [sm.run() for sm in sms],
                       setup=lambda: ((_build_device_sms(),), {}),
                       rounds=3, iterations=1)
    device_rate, device_total, device_stepped = \
        _best_of(_build_device_sms)
    single_rate, _, single_stepped = \
        _best_of(lambda: [_build_single_sm()])
    device_speedup = device_rate / PRE_CHANGE_DEVICE_CYCLES_PER_SEC
    skipped_fraction = 1.0 - device_stepped
    print_figure(
        "DEVICE/device_scale",
        f"{N_SMS} SMs: {device_rate:,.0f} agg cycles/s over "
        f"{device_total} cycles ({skipped_fraction:.1%} skipped, "
        f"{device_speedup:.2f}x vs pre-change "
        f"{PRE_CHANGE_DEVICE_CYCLES_PER_SEC:,.0f}); single SM "
        f"{single_rate:,.0f} cycles/s "
        f"({1.0 - single_stepped:.1%} skipped)")
    previous = _record("device_scale", {
        "benchmark": DEVICE_BENCHMARK, "scale": DEVICE_SCALE,
        "n_sms": N_SMS, "technique": "warped_gates",
        "best_of": BEST_OF_ROUNDS,
        "device_cycles_per_sec": round(device_rate, 1),
        "single_sm_cycles_per_sec": round(single_rate, 1),
        "real_stepped_fraction": round(device_stepped, 3),
        "single_sm_real_stepped_fraction": round(single_stepped, 3),
        "pre_pr_device_cycles_per_sec": PRE_CHANGE_DEVICE_CYCLES_PER_SEC,
        "pre_pr_single_sm_cycles_per_sec":
            PRE_CHANGE_SINGLE_SM_CYCLES_PER_SEC,
        "speedup_vs_pre_pr": round(device_speedup, 2),
    })
    _gate("device_scale",
          skipped_fraction >= MIN_SKIPPED_FRACTION
          or device_speedup >= MIN_DEVICE_SPEEDUP * SPEEDUP_TOLERANCE,
          f"device run skipped only {skipped_fraction:.1%} of cycles "
          f"and ran {device_speedup:.2f}x the pre-change rate; gate "
          f"needs >= {MIN_SKIPPED_FRACTION:.0%} skipped or "
          f">= {MIN_DEVICE_SPEEDUP}x "
          f"(with {SPEEDUP_TOLERANCE:.0%} tolerance)")
    history_ok, message = history.check_against_previous(
        previous, "device_cycles_per_sec", device_rate)
    _gate("device_scale", history_ok, f"vs history: {message}")


# ----------------------------------------------------------------------
# device-level integration table (baseline vs warped gates)
# ----------------------------------------------------------------------

def run_device(name: str, technique: Technique, scale: float):
    gpu = GPU(N_SMS, technique, dram_latency=get_profile(name).dram_latency)
    return gpu.run(build_kernel(name, scale=scale))


def regenerate(figure_scale):
    # Always full-scale kernels: splitting a scaled-down kernel over 15
    # SMs starves each SM of warps and measures occupancy, not gating.
    del figure_scale
    rows = []
    for name in BENCHMARKS:
        base = run_device(name, Technique.BASELINE, 1.0)
        wg = run_device(name, Technique.WARPED_GATES, 1.0)
        activity = wg.unit_activity(ExecUnitKind.INT)
        savings = (activity.gated_cycles - activity.gating_events * 14) \
            / activity.cycles if activity.cycles else 0.0
        rows.append([name, len(wg.sm_results), wg.cycles,
                     base.cycles / wg.cycles, savings])
    return rows


def test_device_level_run(benchmark, figure_scale):
    rows = benchmark.pedantic(regenerate, args=(figure_scale,),
                              rounds=1, iterations=1)
    text = format_table(
        ("benchmark", "sms_used", "device_cycles", "norm_perf",
         "device_int_savings"), rows,
        title=f"Device-level Warped Gates ({N_SMS} SMs)")
    print_figure("DEVICE", text)

    for row in rows:
        assert row[1] >= 2                # work actually spread out
        assert row[3] > 0.85              # no pathological slowdown
        assert row[4] > 0.0               # device-level net savings
