"""Power timeline: epoch-sampled activity of every gating domain.

An **event-bus subscriber** that bins the run into fixed-length epochs
and records, per gating domain, how many cycles it spent busy,
idle-but-powered, gated and waking, plus the instructions issued — i.e.
a power trace.  Useful for phase analysis ("when does the FP cluster
actually sleep?"), for visualising the adaptive controller's effect over
time, and for estimating instantaneous power draw from the energy model.

Power-state residency is derived from the simulator's event stream
(:class:`~repro.obs.events.GateOn` / :class:`~repro.obs.events.Wakeup` /
:class:`~repro.obs.events.GateOff` on the SM's bus) rather than by
polling each domain's state machine — the timeline is a consumer of the
observability layer, exactly like the JSONL and Chrome-trace exporters.
A light per-cycle hook still samples pipeline busy/idle occupancy, which
is deliberately not evented (it would mean one event per pipeline per
cycle).

Constructing a timeline enables the SM's bus.

Usage::

    sm = build_sm(kernel, Technique.WARPED_GATES)
    timeline = PowerTimeline(sm, epoch_cycles=500)
    sm.run()
    for sample in timeline.samples("FP0"):
        print(sample.epoch, sample.gated, sample.busy)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.events import GateOff, GateOn, Wakeup


@dataclass
class EpochSample:
    """Activity of one domain during one epoch."""

    epoch: int
    busy: int = 0          # pipeline held work
    idle_powered: int = 0  # powered but empty (leaking uselessly)
    gated: int = 0         # gate closed (leakage saved)
    waking: int = 0        # powering back up
    issues: int = 0

    @property
    def cycles(self) -> int:
        """Cycles accounted in this epoch (full epochs: the bin size)."""
        return self.busy + self.idle_powered + self.gated + self.waking

    def leakage_fraction(self) -> float:
        """Fraction of the epoch spent burning leakage (not gated)."""
        total = self.cycles
        return (total - self.gated) / total if total else 0.0


class PowerTimeline:
    """Epoch-binned activity recorder fed by the SM's event bus.

    Pipelines without a gating domain (e.g. LDST under the paper's
    configuration) are recorded too — they never appear in gating
    events, so their ``gated`` count simply stays zero.
    """

    def __init__(self, sm, epoch_cycles: int = 500,
                 names: Optional[Sequence[str]] = None) -> None:
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be >= 1")
        available = {pipe.name: pipe for pipe in sm.pipelines}
        selected = tuple(names) if names is not None else tuple(available)
        unknown = [n for n in selected if n not in available]
        if unknown:
            raise KeyError(f"unknown pipelines {unknown}")
        self._pipes = [available[n] for n in selected]
        self.epoch_cycles = epoch_cycles
        self._samples: Dict[str, List[EpochSample]] = {
            name: [] for name in selected}
        self._issue_seen: Dict[str, int] = {name: 0 for name in selected}
        # Event-derived power state per tracked domain: the first cycle
        # of the current gated window (None while ungated) and the first
        # cycle the domain will be ON again after a wakeup.
        self._gated_from: Dict[str, int] = {}
        self._wake_until: Dict[str, int] = {}
        self.bus = sm.bus
        self.bus.enable()
        self.bus.subscribe(self._on_gate_on, GateOn)
        self.bus.subscribe(self._on_wakeup, Wakeup)
        self.bus.subscribe(self._on_gate_off, GateOff)
        sm.add_hook(self)

    # ------------------------------------------------------------------
    # bus subscriptions: track each domain's power state
    # ------------------------------------------------------------------

    def _on_gate_on(self, event: GateOn) -> None:
        if event.domain in self._samples:
            # The switch closes at the end of the event's cycle; the
            # domain is gated from the next cycle on.
            self._gated_from[event.domain] = event.cycle + 1

    def _on_wakeup(self, event: Wakeup) -> None:
        if event.domain in self._samples:
            self._wake_until[event.domain] = event.cycle + event.delay

    def _on_gate_off(self, event: GateOff) -> None:
        # Covers both the wakeup path (arrives just before Wakeup) and
        # the end-of-run finalisation, which has no Wakeup.
        self._gated_from.pop(event.domain, None)

    # ------------------------------------------------------------------
    # per-cycle sampling hook
    # ------------------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Cycle hook: bin this cycle's state per domain."""
        epoch = cycle // self.epoch_cycles
        for pipe in self._pipes:
            series = self._samples[pipe.name]
            if not series or series[-1].epoch != epoch:
                series.append(EpochSample(epoch=epoch))
            sample = series[-1]
            gated_from = self._gated_from.get(pipe.name)
            if gated_from is not None and cycle >= gated_from:
                sample.gated += 1
            elif cycle < self._wake_until.get(pipe.name, 0):
                sample.waking += 1
            elif pipe.is_busy(cycle):
                sample.busy += 1
            else:
                sample.idle_powered += 1
            issued_total = pipe.issued_count
            sample.issues += issued_total - self._issue_seen[pipe.name]
            self._issue_seen[pipe.name] = issued_total

    # ------------------------------------------------------------------

    def samples(self, name: str) -> List[EpochSample]:
        """The epoch series of one domain."""
        return list(self._samples[name])

    def domains(self) -> Sequence[str]:
        """Recorded domain names."""
        return tuple(self._samples)

    def gated_fraction_series(self, name: str) -> List[float]:
        """Per-epoch gated fraction — the 'sleep trace' of a domain."""
        return [s.gated / s.cycles if s.cycles else 0.0
                for s in self._samples[name]]

    def to_rows(self, name: str) -> List[List[object]]:
        """Tabular form for reports/export."""
        return [[s.epoch, s.busy, s.idle_powered, s.gated, s.waking,
                 s.issues] for s in self._samples[name]]


TIMELINE_HEADERS = ("epoch", "busy", "idle_powered", "gated", "waking",
                    "issues")
