"""Parameter sweeps: Figure 6 (idle-detect) and Figure 11 (BET, wakeup).

* :func:`idle_detect_sweep` replays every benchmark under GATES +
  Blackout across static idle-detect values 0..10 and records runtime
  and critical wakeups — the raw data behind Figure 6's correlation
  scatter.
* :func:`bet_sweep` / :func:`wakeup_sweep` compare conventional power
  gating against Warped Gates across break-even times {9, 14, 19} and
  wakeup delays {3, 6, 9}, reporting suite-average INT/FP savings and
  geomean performance (Figure 11a / 11b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.correlation import (
    critical_wakeups_per_kilocycle,
    pearson_r,
)
from repro.core.spec import technique_label
from repro.core.techniques import Technique
from repro.engine.faults import JobFailedError
from repro.harness.experiment import (
    ExperimentRunner,
    geomean,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind
from repro.power.params import GatingParams

#: Paper sweep points (section 7.6; BET values from Hu et al.).
BET_VALUES: Tuple[int, ...] = (9, 14, 19)
WAKEUP_VALUES: Tuple[int, ...] = (3, 6, 9)
IDLE_DETECT_VALUES: Tuple[int, ...] = tuple(range(0, 11))


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, technique) cell of a Figure 11 panel.

    ``benchmarks`` counts the surviving runs behind the averages; 0
    means every benchmark failed at this point, in which case the
    metrics are NaN — a failed point is never rendered as a measured
    zero.
    """

    value: int
    technique: Technique
    int_savings: float
    fp_savings: float
    performance: float
    benchmarks: int

    @property
    def failed(self) -> bool:
        """True when no benchmark survived at this sweep point."""
        return self.benchmarks == 0


@dataclass(frozen=True)
class CorrelationResult:
    """Figure 6 outcome for one benchmark."""

    benchmark: str
    pearson: float
    #: (critical wakeups per kilocycle, normalised runtime) per
    #: idle-detect value.
    points: Tuple[Tuple[float, float], ...]


def idle_detect_sweep(runner: ExperimentRunner,
                      values: Sequence[int] = IDLE_DETECT_VALUES,
                      technique: Technique = Technique.NAIVE_BLACKOUT,
                      ) -> List[CorrelationResult]:
    """Figure 6: correlate critical wakeups with runtime per benchmark.

    Runtime is normalised to the no-gating baseline (values above 1.0
    mean Blackout slowed the benchmark down), matching the paper's
    y-axis.  The returned Pearson r reproduces the per-benchmark legend
    annotations.
    """
    runner.prefetch(
        [(name, Technique.BASELINE) for name in runner.settings.benchmarks]
        + [(name, technique,
            replace(runner.settings.gating, idle_detect=v))
           for name in runner.settings.benchmarks for v in values])
    results: List[CorrelationResult] = []
    for name in runner.settings.benchmarks:
        try:
            base_cycles = runner.baseline(name).cycles
            xs: List[float] = []
            ys: List[float] = []
            for idle_detect in values:
                gating = replace(runner.settings.gating,
                                 idle_detect=idle_detect)
                result = runner.run(name, technique, gating=gating)
                critical = (result.gating_totals(ExecUnitKind.INT)
                            .critical_wakeups
                            + result.gating_totals(ExecUnitKind.FP)
                            .critical_wakeups)
                xs.append(critical_wakeups_per_kilocycle(critical,
                                                         result.cycles))
                ys.append(result.cycles / base_cycles)
        except JobFailedError:
            # Failed cell: drop this benchmark's scatter, keep the rest
            # of the figure.  The runner's manifests name the culprit.
            continue
        results.append(CorrelationResult(
            benchmark=name, pearson=pearson_r(xs, ys),
            points=tuple(zip(xs, ys))))
    results.sort(key=lambda r: -r.pearson)
    return results


def _suite_point(runner: ExperimentRunner, technique: Technique,
                 gating: GatingParams, value: int) -> SweepPoint:
    int_savings: List[float] = []
    fp_savings: List[float] = []
    perf: List[float] = []
    for name in runner.settings.benchmarks:
        try:
            base = runner.baseline(name)
            result = runner.run(name, technique, gating=gating)
            int_val = runner.static_savings(
                name, technique, ExecUnitKind.INT, gating=gating)
            fp_val = runner.static_savings(
                name, technique, ExecUnitKind.FP, gating=gating) \
                if name in runner.fp_benchmarks() else None
            perf_val = normalized_performance(base, result)
        except JobFailedError:
            # Failed cell: average over the surviving benchmarks.
            continue
        int_savings.append(int_val)
        if fp_val is not None:
            fp_savings.append(fp_val)
        perf.append(perf_val)
    if not int_savings:
        # Every benchmark failed at this point: keep the sweep's shape
        # but mark the point failed (NaN metrics, zero population)
        # instead of fabricating a measured-looking zero.
        nan = float("nan")
        return SweepPoint(value=value, technique=technique,
                          int_savings=nan, fp_savings=nan,
                          performance=nan, benchmarks=0)
    return SweepPoint(
        value=value, technique=technique,
        int_savings=sum(int_savings) / len(int_savings),
        fp_savings=sum(fp_savings) / len(fp_savings) if fp_savings else 0.0,
        performance=geomean(perf), benchmarks=len(int_savings))


def bet_sweep(runner: ExperimentRunner,
              values: Sequence[int] = BET_VALUES,
              techniques: Sequence[Technique] = (
                  Technique.CONV_PG, Technique.WARPED_GATES),
              ) -> List[SweepPoint]:
    """Figure 11a: sensitivity to the break-even time."""
    _prefetch_grid(runner, techniques,
                   [replace(runner.settings.gating, bet=v)
                    for v in values])
    points: List[SweepPoint] = []
    for bet in values:
        gating = replace(runner.settings.gating, bet=bet)
        for technique in techniques:
            points.append(_suite_point(runner, technique, gating, bet))
    return points


def _prefetch_grid(runner: ExperimentRunner,
                   techniques: Sequence[Technique],
                   gatings: Sequence[GatingParams]) -> None:
    """Fan a sweep's full run grid over the runner's engine."""
    runner.prefetch(
        [(name, Technique.BASELINE) for name in runner.settings.benchmarks]
        + [(name, technique, gating)
           for name in runner.settings.benchmarks
           for gating in gatings for technique in techniques])


def wakeup_sweep(runner: ExperimentRunner,
                 values: Sequence[int] = WAKEUP_VALUES,
                 techniques: Sequence[Technique] = (
                     Technique.CONV_PG, Technique.WARPED_GATES),
                 ) -> List[SweepPoint]:
    """Figure 11b: sensitivity to the wakeup delay."""
    _prefetch_grid(runner, techniques,
                   [replace(runner.settings.gating, wakeup_delay=v)
                    for v in values])
    points: List[SweepPoint] = []
    for wakeup in values:
        gating = replace(runner.settings.gating, wakeup_delay=wakeup)
        for technique in techniques:
            points.append(_suite_point(runner, technique, gating, wakeup))
    return points


def sweep_rows(points: Sequence[SweepPoint]) -> List[List[object]]:
    """Tabular form of a Figure 11 panel.

    A failed point's NaN metrics are emitted as ``None`` (empty CSV
    field, JSON ``null``) so exported tables cannot mistake a failed
    point for a measurement; the ``benchmarks`` column says how many
    runs are behind each row.
    """
    def cell(metric: float) -> Optional[float]:
        return None if math.isnan(metric) else metric

    return [[p.value, technique_label(p.technique), cell(p.int_savings),
             cell(p.fp_savings), cell(p.performance), p.benchmarks]
            for p in points]


SWEEP_HEADERS = ("value", "technique", "int_savings", "fp_savings",
                 "performance", "benchmarks")
