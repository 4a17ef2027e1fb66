"""End-to-end and per-layer metrics from one run's op records and spans."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import calibrate
from tracing import COST, Tracer, per_op, self_times

#: name -> unit, in report order.  Mirrors ``end_to_end`` in
#: BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "sim_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
}

#: name -> unit, in report order.  Mirrors ``per_layer``.
PER_LAYER = {
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.result_doc_ms": "ms",
    "service.core_self_ms": "ms",
    "engine.cache_put_ms": "ms",
    "engine.trace_cache_hit_ratio": "ratio",
    "engine.cache_get_ms": "ms",
    "engine.result_entry_kb": "kB",
    "engine.run_sim_jobs_self_ms": "ms",
    "engine.map_ms": "ms",
    "engine.pool_overhead_ms": "ms",
    "engine.part_pickle_kb": "kB",
    "workloads.trace_build_ms": "ms",
    "workloads.trace_load_ms": "ms",
    "core.build_sm_ms": "ms",
    "core.spec_hash_us": "us",
    "core.result_digest_ms": "ms",
    "sim.run_ms": "ms",
    "sim.cycles_per_host_s": "cycles/s",
    "sim.split_kernel_ms": "ms",
    "sim.kernel_cycles_frac": "ratio",
    "sim.skip_cycles_frac": "ratio",
    "sim.realstep_cycles_frac": "ratio",
    "sim.plan_success_ratio": "ratio",
    "sim.planner_overhead_cycles": "count",
    "sim.dense_windows": "count",
    "obs.config_hash_us": "us",
    "obs.ledger_ms": "ms",
    "harness.runner_self_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Pool workers a device launch fans out over.
POOL_JOBS = 2

#: Ops on each side of an op whose calibration samples make its host
#: factor (measured over five to ten runs per workload: a p90 spread of
#: 4-7%, against 4-11% with one factor for the whole run).
FACTOR_WINDOW = 5


@dataclass
class OpRecord:
    """One timed op: its wall time, result size and verdict."""

    op_id: str
    latency: float
    cycles: int
    ok: bool
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunRecord:
    """Everything one workload run measured."""

    setup: List[float]
    ops: List[OpRecord]
    peak_rss_mb: float
    #: One :func:`calibrate.sample` time taken after each op.
    calibration: List[float]
    setup_ok: bool = True
    tracer: Optional[Tracer] = None

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def host_factor(self) -> float:
        """How much slower than nominal the host ran the ops, over the
        whole run (2.0 = at half speed)."""
        return statistics.mean(self.calibration) / calibrate.NOMINAL_S

    def op_factors(self) -> List[float]:
        """Each op's host factor: the mean of the calibration samples
        taken after it and after the :data:`FACTOR_WINDOW` ops on each
        side, so a slow burst of the host scales the ops it slowed."""
        assert len(self.calibration) == len(self.ops)
        cal, k = self.calibration, FACTOR_WINDOW
        return [statistics.mean(cal[max(0, i - k):i + k + 1])
                / calibrate.NOMINAL_S for i in range(len(cal))]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a ``q`` share
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def end_to_end(run: RunRecord, normalise: bool = True) -> Dict[str, float]:
    """The end-to-end metrics, op times scaled to the nominal host.

    ``setup_s`` stays raw: set-up is too short, and too unlike the
    calibration workload, for the factor to track it (measured: it
    widened the spread).  ``normalise=False`` gives raw figures only.
    """
    factors = run.op_factors() if normalise else [1.0] * len(run.ops)
    latencies = [op.latency / f for op, f in zip(run.ops, factors)]
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(run.setup),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "ops_per_s": len(latencies) / busy,
        "sim_cycles_per_s": sum(op.cycles for op in run.ops) / busy,
        "peak_rss_mb": run.peak_rss_mb,
    }


def _median(values: Iterable[float], scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: RunRecord) -> Dict[str, float]:
    """Per-layer metrics of a traced run (0 where a layer never ran).

    Times are the median over ops of the layer's summed self time in
    the op; trace build/load times are per call and include set-up.
    Counts and mode fractions are totals over the measured ops.  The
    tracing overhead is the tracer's own time over the op time without
    it, summed over the measured ops (and over processes: where pool
    workers overlap, an upper bound).
    """
    tracer = run.tracer
    assert tracer is not None
    measured = {op.op_id for op in run.ops}
    spans = [s for s in tracer.spans if s.op in measured]
    own = self_times(tracer.spans)
    duration = {s.sid: s.duration for s in tracer.spans}

    def op_sum(*names: str, times: Dict[int, float] = own,
               ) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name in names:
            for op, value in per_op(spans, name, times).items():
                totals[op] = totals.get(op, 0.0) + value
        return totals

    def layer(*names: str, scale: float = 1e3) -> float:
        return _median(op_sum(*names).values(), scale)

    counts: Dict[str, float] = {}
    per_op_counts: Dict[Tuple[str, str], float] = {}
    samples: Dict[str, List[float]] = {}
    for op, name, value in tracer.counts:
        if op not in measured:
            continue
        counts[name] = counts.get(name, 0.0) + value
        per_op_counts[(op, name)] = per_op_counts.get((op, name), 0.0) \
            + value
        samples.setdefault(name, []).append(value)

    def count_per_op(name: str) -> float:
        return _median(v for (op, n), v in per_op_counts.items()
                       if n == name)

    run_time = op_sum("sim.run", times=duration)
    cycles_per_host_s = [per_op_counts.get((op, "sim.cycles"), 0.0) / t
                         for op, t in run_time.items() if t > 0]
    map_time = op_sum("engine.map", times=duration)
    worker_run = {op: t for op, t in run_time.items() if op in map_time}
    pool_overhead = [t - worker_run.get(op, 0.0) / POOL_JOBS
                     for op, t in map_time.items()]
    trace_calls = {name: [s.duration for s in tracer.spans
                          if s.name == name]
                   for name in ("workloads.trace_build",
                                "workloads.trace_load")}
    cycles = counts.get("sim.cycles", 0.0)
    cost = counts.get(COST, 0.0)
    untraced = sum(op.latency for op in run.ops) - cost
    return {
        "service.submit_ms": layer("service.submit"),
        "service.queue_wait_ms": _median(
            (op.extra["queue_wait"] for op in run.ops
             if "queue_wait" in op.extra), 1e3),
        "service.result_doc_ms": _median(
            (op.extra["result_doc"] for op in run.ops
             if "result_doc" in op.extra), 1e3),
        "service.core_self_ms": layer("service.core"),
        "engine.cache_put_ms": layer("engine.cache_put.results",
                                     "engine.cache_put.traces"),
        "engine.trace_cache_hit_ratio": _ratio(
            counts.get("engine.traces_cache_hit", 0.0),
            counts.get("engine.traces_cache_get", 0.0)),
        "engine.cache_get_ms": layer("engine.cache_get.results",
                                     "engine.cache_get.traces"),
        "engine.result_entry_kb": _median(
            samples.get("engine.result_entry_bytes", ()), 1 / 1024),
        "engine.run_sim_jobs_self_ms": layer("engine.run_sim_jobs"),
        "engine.map_ms": _median(map_time.values(), 1e3),
        "engine.pool_overhead_ms": _median(pool_overhead, 1e3),
        "engine.part_pickle_kb": count_per_op("engine.part_pickle_bytes")
        / 1024,
        "workloads.trace_build_ms": _median(
            trace_calls["workloads.trace_build"], 1e3),
        "workloads.trace_load_ms": _median(
            trace_calls["workloads.trace_load"], 1e3),
        "core.build_sm_ms": layer("core.build_sm"),
        "core.spec_hash_us": layer("core.spec_hash", scale=1e6),
        "core.result_digest_ms": layer("core.result_digest"),
        "sim.run_ms": layer("sim.run"),
        "sim.cycles_per_host_s": _median(cycles_per_host_s),
        "sim.split_kernel_ms": layer("sim.split_kernel"),
        "sim.kernel_cycles_frac": _ratio(
            counts.get("sim.kernel_cycles", 0.0), cycles),
        "sim.skip_cycles_frac": _ratio(
            counts.get("sim.skip_cycles", 0.0), cycles),
        "sim.realstep_cycles_frac": _ratio(
            counts.get("sim.realstep_cycles", 0.0), cycles),
        "sim.plan_success_ratio": _ratio(counts.get("sim.skips", 0.0),
                                         counts.get("sim.plans", 0.0)),
        "sim.planner_overhead_cycles": count_per_op(
            "sim.planner_overhead_cycles"),
        "sim.dense_windows": count_per_op("sim.dense_windows"),
        "obs.config_hash_us": layer("obs.config_hash", scale=1e6),
        "obs.ledger_ms": layer("obs.ledger"),
        "harness.runner_self_ms": layer("harness.runner"),
        "trace.overhead_pct": _ratio(cost, untraced) * 100,
    }
