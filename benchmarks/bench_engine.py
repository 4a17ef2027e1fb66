"""Parallel-engine throughput: serial vs fast-forward vs process pool.

Measures the same mixed experiment grid (four benchmarks under baseline
and Warped Gates) three ways:

* ``serial``        — in-process, cycle-by-cycle (the pre-engine path);
* ``fast_forward``  — in-process with the idle-cycle fast-forward;
* ``parallel``      — fast-forward jobs fanned over a
  :class:`~repro.engine.pool.ParallelEngine` process pool
  (``--engine-jobs``, default 2 — what CI runs).

All three produce bit-identical results (asserted here on total cycles;
the exhaustive metric-level check lives in ``tests/engine/``), so the
rows isolate pure execution-engine speed.  The persistent cache is
disabled throughout — a cache hit would measure pickle loading, not
simulation.

Rates land in ``BENCH_engine.json`` at the repo root (latest snapshot)
and are appended to ``BENCH_history.jsonl`` (full trajectory, one JSONL
record per measurement with git sha and config — see
:mod:`history`).  The serial row doubles as CI's throughput-regression
gate: it must stay within 15% of the committed baseline below AND
within the history tolerance of the last recorded run.
"""

import json
from pathlib import Path

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine

import history
from conftest import print_figure

SCALE = 0.5
#: Mixed compute/memory-bound grid so both engine paths are exercised.
GRID = [(name, technique)
        for name in ("hotspot", "bfs", "sgemm", "srad")
        for technique in (Technique.BASELINE, Technique.WARPED_GATES)]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: CI regression gate for the serial row, in simulated cycles/second.
#: Set conservatively (roughly half a warm local 4-core box) so shared
#: CI runners have headroom; the assert below allows a further 15% dip.
SERIAL_BASELINE_CYCLES_PER_SEC = 5_000.0


def _jobs(fast_forward: bool):
    return [JobRequest(benchmark=name, technique=technique,
                       scale=SCALE, fast_forward=fast_forward)
            for name, technique in GRID]


def run_grid(engine_jobs: int, fast_forward: bool) -> int:
    """Run the grid and return total simulated cycles."""
    with ParallelEngine(jobs=engine_jobs, cache_dir=None,
                        fast_forward=fast_forward) as engine:
        outcomes = engine.run_sim_jobs(_jobs(fast_forward))
    return sum(outcome.result.cycles for outcome in outcomes)


def record_rate(name: str, jobs: int, cycles: int, rate: float):
    """Merge one rate into BENCH_engine.json and append it to history.

    Returns the *previous* history entry for this row (None on first
    run) so callers can gate against the last recorded measurement.
    """
    document = {}
    if RESULTS_PATH.exists():
        try:
            document = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            document = {}
    document[name] = {"grid": len(GRID), "scale": SCALE, "jobs": jobs,
                      "cycles": cycles, "cycles_per_sec": round(rate, 1)}
    RESULTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True),
                            encoding="utf-8")
    return history.record_rates(
        "engine", name,
        rates={"cycles_per_sec": round(rate, 1)},
        config={"grid": len(GRID), "scale": SCALE, "jobs": jobs,
                "cycles": cycles})


def _measure(benchmark, name: str, jobs: int, fast_forward: bool):
    cycles = benchmark.pedantic(run_grid, args=(jobs, fast_forward),
                                rounds=3, iterations=1, warmup_rounds=1)
    rate = cycles / benchmark.stats.stats.min
    print_figure(f"ENGINE/{name}",
                 f"{cycles} simulated cycles over {len(GRID)} runs "
                 f"at {rate:,.0f} cycles/s (jobs={jobs})")
    previous = record_rate(name, jobs, cycles, rate)
    return rate, previous


def test_engine_serial(benchmark):
    """Cycle-by-cycle in-process grid — the regression-gated row."""
    rate, previous = _measure(benchmark, "serial", jobs=1,
                              fast_forward=False)
    assert rate > SERIAL_BASELINE_CYCLES_PER_SEC * 0.85, (
        f"serial throughput regressed >15%: {rate:,.0f} cycles/s vs "
        f"baseline {SERIAL_BASELINE_CYCLES_PER_SEC:,.0f}")
    ok, message = history.check_against_previous(
        previous, "cycles_per_sec", rate)
    assert ok, f"serial throughput vs history: {message}"


def test_engine_fast_forward(benchmark):
    """Idle-cycle fast-forward, still in-process and single-job."""
    _measure(benchmark, "fast_forward", jobs=1, fast_forward=True)


def test_engine_parallel(benchmark, engine_jobs):
    """Fast-forward jobs fanned over the worker pool."""
    _measure(benchmark, "parallel", jobs=engine_jobs, fast_forward=True)


def test_engine_paths_agree():
    """All three engine paths simulate the identical grid."""
    serial = run_grid(1, fast_forward=False)
    assert run_grid(1, fast_forward=True) == serial
    assert run_grid(2, fast_forward=True) == serial
