"""Multi-seed replication: mean and spread for the headline metrics.

The synthetic traces are random draws from each benchmark's statistical
model, so any single-seed number carries sampling noise.  This module
replays the headline experiment (static savings + normalised
performance per technique) across several seeds and reports mean ±
sample standard deviation — the honest way to quote the reproduction's
numbers, and the basis for EXPERIMENTS.md's stability claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.spec import technique_label
from repro.core.techniques import PAPER_TECHNIQUES, Technique
from repro.engine.faults import JobFailedError
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    geomean,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind
from repro.obs.manifest import RunManifest
from repro.service.core import SimulationService


@dataclass(frozen=True)
class MetricEstimate:
    """Mean and spread of one metric over replicated seeds."""

    mean: float
    stdev: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} +/- {self.stdev:.3f} (n={self.n})"


@dataclass(frozen=True)
class ReplicatedResult:
    """Suite-level metrics of one technique across seeds.

    ``benchmarks`` records the population behind the means: one
    surviving-benchmark count per contributing seed, identical across
    techniques — a benchmark that fails *any* cell within a seed is
    dropped from that whole seed, so cross-technique comparisons always
    average over the same benchmarks.  A count below the configured
    suite size flags a partial (failure-reduced) population.
    """

    technique: Technique
    int_savings: MetricEstimate
    fp_savings: MetricEstimate
    performance: MetricEstimate
    benchmarks: Tuple[int, ...] = ()


def _estimate(samples: Sequence[float]) -> MetricEstimate:
    n = len(samples)
    if n == 0:
        return MetricEstimate(0.0, 0.0, 0)
    mean = sum(samples) / n
    if n == 1:
        return MetricEstimate(mean, 0.0, 1)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return MetricEstimate(mean, math.sqrt(var), n)


def replicate(settings: ExperimentSettings,
              seeds: Sequence[int] = (0, 1, 2),
              techniques: Sequence[Technique] = PAPER_TECHNIQUES,
              engine=None,
              failure_log: Optional[List[RunManifest]] = None,
              service: Optional[SimulationService] = None,
              ) -> List[ReplicatedResult]:
    """Run the headline experiment once per seed and aggregate.

    Each seed gets its own runner (fresh traces throughout) but all
    seeds share one :class:`SimulationService` — request keys carry the
    seed, so cells never alias, and the shared single-flight memo means
    re-running a seed costs nothing.  Within a seed the usual
    identical-trace comparison across techniques holds.  Each seed's
    full (benchmark × technique) grid is prefetched as one engine batch
    (over the worker pool of an ``engine``, or of the engine a
    ``service`` wraps) before the serial metric loops read it back
    from memory.

    A benchmark that terminally fails *any* of its cells (baseline or
    any technique) is dropped from the whole seed —
    not just from the failing technique's averages — so every technique
    aggregates over the same surviving benchmarks and cross-technique
    comparisons stay population-equal.  Per-seed survivor counts land
    in :attr:`ReplicatedResult.benchmarks`; pass ``failure_log`` to
    collect the failed cells' manifests (empty afterwards means every
    cell succeeded).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if service is None:
        service = SimulationService(engine=engine)
    per_technique: Dict[Technique, Dict[str, List[float]]] = {
        t: {"int": [], "fp": [], "perf": []} for t in techniques}
    coverage: List[int] = []
    for seed in seeds:
        runner = ExperimentRunner(replace(settings, seed=seed),
                                  service=service)
        runner.prefetch(
            [(name, tech)
             for name in runner.settings.benchmarks
             for tech in (Technique.BASELINE, *techniques)])
        # One population per seed: collect every technique's metrics
        # for a benchmark together, so one failed cell drops the
        # benchmark from the seed entirely.
        surviving: Dict[str, Dict[Technique, Tuple]] = {}
        for name in runner.settings.benchmarks:
            try:
                base = runner.baseline(name)
                cells: Dict[Technique, Tuple] = {}
                for technique in techniques:
                    result = runner.run(name, technique)
                    int_val = runner.static_savings(
                        name, technique, ExecUnitKind.INT)
                    fp_val = runner.static_savings(
                        name, technique, ExecUnitKind.FP) \
                        if name in runner.fp_benchmarks() else None
                    perf_val = normalized_performance(base, result)
                    cells[technique] = (int_val, fp_val, perf_val)
            except JobFailedError:
                continue
            surviving[name] = cells
        if failure_log is not None:
            failure_log.extend(runner.failures)
        if not surviving:
            continue
        coverage.append(len(surviving))
        for technique in techniques:
            int_vals = [cells[technique][0]
                        for cells in surviving.values()]
            fp_vals = [cells[technique][1]
                       for cells in surviving.values()
                       if cells[technique][1] is not None]
            perf_vals = [cells[technique][2]
                         for cells in surviving.values()]
            bucket = per_technique[technique]
            bucket["int"].append(sum(int_vals) / len(int_vals))
            bucket["fp"].append(sum(fp_vals) / len(fp_vals)
                                if fp_vals else 0.0)
            bucket["perf"].append(geomean(perf_vals))
    return [
        ReplicatedResult(
            technique=technique,
            int_savings=_estimate(per_technique[technique]["int"]),
            fp_savings=_estimate(per_technique[technique]["fp"]),
            performance=_estimate(per_technique[technique]["perf"]),
            benchmarks=tuple(coverage))
        for technique in techniques
    ]


def replication_rows(results: Sequence[ReplicatedResult],
                     ) -> List[List[object]]:
    """Tabular form (one row per technique).

    ``benchmarks`` renders the per-seed survivor counts (e.g. ``3/3/2``
    for three seeds) so a partial population is visible right in the
    headline table.
    """
    rows: List[List[object]] = []
    for result in results:
        rows.append([
            technique_label(result.technique),
            result.int_savings.mean, result.int_savings.stdev,
            result.fp_savings.mean, result.fp_savings.stdev,
            result.performance.mean, result.performance.stdev,
            "/".join(str(n) for n in result.benchmarks),
        ])
    return rows


REPLICATION_HEADERS = ("technique", "int_mean", "int_sd", "fp_mean",
                       "fp_sd", "perf_mean", "perf_sd", "benchmarks")
