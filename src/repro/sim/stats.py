"""Statistics collection for the SM model.

Everything the paper's figures need is gathered here per run:

* per-pipeline busy/idle accounting and **idle-period length
  histograms** (Figure 3),
* active/pending warp population samples (Figure 5b),
* issue counts per instruction type (Figure 5a denominators) and issue
  stall reasons (diagnostics for the scheduler/PG interplay),
* end-to-end cycle count (Figure 10's performance metric).

Power-gating state counters (gated cycles, wakeups, critical wakeups)
live with the controllers in :mod:`repro.power.gating`; the harness
merges both sides into experiment records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.isa.optypes import OpClass


class IdlePeriodTracker:
    """Histogram of maximal idle-run lengths for one pipeline.

    An *idle period* is a maximal run of cycles during which the pipeline
    holds no work (its power-gating domain may be ON or gated — gated
    cycles are by definition idle).  The paper partitions these lengths
    into three regions (Figure 3): shorter than idle-detect, between
    idle-detect and idle-detect+BET, and beyond.
    """

    def __init__(self) -> None:
        self.histogram: Dict[int, int] = {}
        self._current_run = 0
        self.busy_cycles = 0
        self.idle_cycles = 0
        self._finalized = False

    def observe_busy_span(self, span: int) -> None:
        """Record ``span`` consecutive busy cycles in one call.

        The first busy cycle closes the current idle run (one histogram
        entry), the rest just extend the busy count.  ``span == 0`` is a
        no-op and leaves any open idle run open.  Together with
        :meth:`observe_idle_span` this is the tracker's whole input: the
        SM's busy/idle state changes only at issue boundaries, so it
        integrates whole spans there instead of touching the tracker
        every cycle.

        Raises RuntimeError after :meth:`finalize` — a late observation
        would silently split the trailing idle period into two histogram
        entries and corrupt the Figure 3 distribution, so it fails loudly
        instead.
        """
        if self._finalized:
            raise RuntimeError(
                "IdlePeriodTracker.observe_busy_span() after finalize(): "
                "build a fresh tracker for a new run")
        if span <= 0:
            return
        self.busy_cycles += span
        if self._current_run:
            self.histogram[self._current_run] = \
                self.histogram.get(self._current_run, 0) + 1
            self._current_run = 0

    def observe_idle_span(self, span: int) -> None:
        """Record ``span`` consecutive idle cycles in one call.

        The cycles extend the current idle run without closing it.
        Raises RuntimeError after :meth:`finalize`, as
        :meth:`observe_busy_span` does.
        """
        if self._finalized:
            raise RuntimeError(
                "IdlePeriodTracker.observe_idle_span() after finalize(): "
                "build a fresh tracker for a new run")
        self.idle_cycles += span
        self._current_run += span

    def finalize(self) -> None:
        """Flush a trailing idle run at end of simulation.

        Explicitly idempotent: the harness and the timeline/analysis
        paths may both finalize the same run, and the second (and any
        later) call must not touch the histogram.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._current_run:
            self.histogram[self._current_run] = \
                self.histogram.get(self._current_run, 0) + 1
            self._current_run = 0

    def export_metrics(self, registry, unit: str) -> None:
        """Publish this tracker into a metrics registry: busy/idle
        cycle counters plus the idle-period length histogram, all
        labelled ``unit="<pipeline>"``."""
        registry.counter("busy_cycles", unit=unit).inc(self.busy_cycles)
        registry.counter("idle_cycles", unit=unit).inc(self.idle_cycles)
        histogram = registry.histogram("idle_period_length", unit=unit)
        for length, count in self.histogram.items():
            histogram.observe(length, count)


@dataclass
class IssueStalls:
    """Why issue slots went unused (diagnostics, ablations)."""

    no_ready_warp: int = 0       # nothing ready in the active set
    structural: int = 0          # unit port held by an earlier warp
    unit_gated: int = 0          # blackout: unit asleep, issue forbidden
    unit_waking: int = 0         # conventional PG: wakeup in progress
    mshr_full: int = 0           # LDST blocked on memory back-pressure


@dataclass
class SMStats:
    """Aggregated statistics for one SM run."""

    cycles: int = 0
    instructions_issued: int = 0
    instructions_retired: int = 0
    fetched: int = 0
    issued_by_class: Dict[OpClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in OpClass})
    stalls: IssueStalls = field(default_factory=IssueStalls)

    # Warp-population sampling (one sample per cycle).
    active_warp_sum: int = 0
    active_warp_max: int = 0
    pending_warp_sum: int = 0

    #: Cycles on which the span fast-forward planner was asked for a
    #: span and skipped nothing (pure overhead): every plan that found
    #: no span, early returns included (an enabled bus changes
    #: neither).  Deliberately NOT exported to the
    #: metrics registry: a fast-forwarded run's metrics must stay
    #: byte-identical to the serial run's (the golden identity harness
    #: digests ``result.metrics`` wholesale), and serial runs never
    #: plan.  Surfaced instead as the traced perfbench metric
    #: ``sim.planner_overhead_cycles``.
    planner_overhead_cycles: int = 0

    # name -> tracker for every pipeline in the SM.
    idle_trackers: Dict[str, IdlePeriodTracker] = field(default_factory=dict)

    @property
    def avg_active_warps(self) -> float:
        """Average active-set size over the run (Figure 5b)."""
        return self.active_warp_sum / self.cycles if self.cycles else 0.0

    @property
    def avg_pending_warps(self) -> float:
        """Average pending-set size over the run."""
        return self.pending_warp_sum / self.cycles if self.cycles else 0.0

    @property
    def ipc(self) -> float:
        """Warp instructions retired per cycle."""
        return self.instructions_retired / self.cycles if self.cycles else 0.0

    def tracker(self, name: str) -> IdlePeriodTracker:
        """Get (or lazily create) the idle tracker for a pipeline."""
        if name not in self.idle_trackers:
            self.idle_trackers[name] = IdlePeriodTracker()
        return self.idle_trackers[name]

    def finalize(self) -> None:
        """Flush open idle runs at end of run."""
        for tracker in self.idle_trackers.values():
            tracker.finalize()

    def export_metrics(self, registry) -> None:
        """Publish the SM-level counters into a metrics registry.

        Together with :meth:`GatingStats.export_metrics` and
        :meth:`IdlePeriodTracker.export_metrics` this makes the registry
        a complete, unified view over the run's legacy counters.
        """
        registry.counter("sim_cycles").inc(self.cycles)
        registry.counter("instructions_issued").inc(self.instructions_issued)
        registry.counter("instructions_retired").inc(
            self.instructions_retired)
        registry.counter("instructions_fetched").inc(self.fetched)
        for cls, count in self.issued_by_class.items():
            registry.counter("issued", op_class=cls.name).inc(count)
        for reason in ("no_ready_warp", "structural", "unit_gated",
                       "unit_waking", "mshr_full"):
            registry.counter("issue_stalls", reason=reason).inc(
                getattr(self.stalls, reason))
        registry.gauge("avg_active_warps").set(self.avg_active_warps)
        registry.gauge("avg_pending_warps").set(self.avg_pending_warps)
        registry.gauge("max_active_warps").set(self.active_warp_max)
        registry.gauge("ipc").set(self.ipc)
        for name, tracker in self.idle_trackers.items():
            tracker.export_metrics(registry, unit=name)

    def idle_fraction(self, pipeline_names: List[str]) -> float:
        """Idle cycles / total cycles, averaged over ``pipeline_names``.

        This is the y-axis quantity of Figure 8a before normalisation to
        the baseline scheduler.
        """
        if not pipeline_names or self.cycles == 0:
            return 0.0
        total_idle = sum(self.idle_trackers[name].idle_cycles
                         for name in pipeline_names)
        return total_idle / (self.cycles * len(pipeline_names))
