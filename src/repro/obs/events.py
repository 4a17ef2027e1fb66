"""Typed simulator events.

Every figure in the paper is a statistic over *events* — gating
transitions, wakeups, priority flips — so the simulator publishes them
as first-class records instead of burying them in counters.  Each event
is a tiny slotted dataclass carrying the cycle it happened at plus the
minimum payload needed to reconstruct the figure it feeds:

======================  ================================================
event                   published by / meaning
======================  ================================================
:class:`GateOn`         ``GatingDomain`` — the sleep switch closed at the
                        end of ``cycle``; leakage savings accrue from
                        ``cycle + 1``.
:class:`GateOff`        ``GatingDomain`` — the gated window ended (a
                        granted wakeup, or end-of-run finalisation);
                        carries the window length, which is what makes
                        Chrome-trace spans sum exactly to
                        ``gated_cycles``.
:class:`Wakeup`         ``GatingDomain`` — a wakeup was *granted*;
                        ``critical`` marks the Figure 6 case (granted at
                        the exact cycle a blackout expired).
:class:`BlackoutBlocked`  ``GatingDomain`` — a wakeup request was denied
                        because the domain is inside its break-even
                        blackout.
:class:`PriorityFlip`   ``GatesScheduler`` — the INT/FP type priority
                        swapped ends (section 4.1).
:class:`EpochAdapt`     ``AdaptiveIdleDetect`` — an epoch closed and the
                        idle-detect window was re-evaluated (section 5.1).
:class:`IssueStall`     ``StreamingMultiprocessor`` — an issue slot went
                        unused; ``reason`` matches the ``IssueStalls``
                        counter names.
:class:`KernelBoundary` ``StreamingMultiprocessor`` — the run's kernel
                        started launching warps (cycle 0; ``index`` is
                        always 0).
======================  ================================================

Events deliberately carry *names* (domain / unit / kernel strings), not
object references, so exporters can serialise them without touching
simulator internals.

Events are immutable *by convention*, not enforcement: publish sites sit
in the cycle loop and a ``frozen=True`` ``__init__`` (one
``object.__setattr__`` per field) more than doubles construction cost,
which is most of the instrumented-run overhead.  Treat a published event
as read-only — the bus may hand the same instance to several handlers,
and the SM reuses one instance for identical same-cycle records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple


@dataclass(slots=True)
class Event:
    """Base class: anything that happened at a simulated cycle."""

    cycle: int

    @property
    def type_name(self) -> str:
        """Short type tag used by exporters (``"GateOn"`` etc.)."""
        return type(self).__name__

    def to_record(self) -> Dict[str, object]:
        """Flat serialisable form (JSONL exporter, tests)."""
        record: Dict[str, object] = {"event": self.type_name}
        for f in fields(self):
            record[f.name] = getattr(self, f.name)
        return record


@dataclass(slots=True)
class GateOn(Event):
    """A domain's sleep switch closed at the end of ``cycle``."""

    domain: str


@dataclass(slots=True)
class GateOff(Event):
    """A gated window ended at ``cycle`` (wakeup or end of run).

    ``gated_cycles`` is the completed window length; ``compensated`` is
    True when the window reached the break-even time, i.e. it saved net
    energy.  ``final`` marks the end-of-run book-closing variant (no
    :class:`Wakeup` follows it).
    """

    domain: str
    gated_cycles: int
    compensated: bool
    final: bool = False


@dataclass(slots=True)
class Wakeup(Event):
    """A wakeup was granted at ``cycle``; the domain is usable after
    ``delay`` more cycles.  ``critical`` is the Figure 6 event: the
    request landed on the exact cycle the blackout expired."""

    domain: str
    critical: bool
    delay: int


@dataclass(slots=True)
class BlackoutBlocked(Event):
    """A wakeup request was denied: the domain must sleep through its
    break-even time.  ``remaining`` counts the blackout cycles left."""

    domain: str
    remaining: int


@dataclass(slots=True)
class PriorityFlip(Event):
    """GATES swapped the INT/FP priority ends at ``cycle``.

    ``reason`` is ``"drained"`` (the highest type's active subset
    emptied) or ``"blackout"`` (Coordinated Blackout extension).
    """

    new_highest: str
    reason: str


@dataclass(slots=True)
class EpochAdapt(Event):
    """Adaptive idle-detect closed an epoch for one unit type."""

    unit: str
    epoch: int
    critical_wakeups: int
    idle_detect: int


@dataclass(slots=True)
class IssueStall(Event):
    """An issue slot went unused; ``reason`` matches ``IssueStalls``."""

    reason: str


@dataclass(slots=True)
class KernelBoundary(Event):
    """The run's kernel (name ``kernel``) began launching warps.

    An SM runs one kernel, so ``index`` is always 0; the field stays so
    that recorded event streams keep their bytes.
    """

    kernel: str
    index: int


#: Every concrete event type, in a stable order (exporters, docs, tests).
EVENT_TYPES: Tuple[type, ...] = (
    GateOn, GateOff, Wakeup, BlackoutBlocked,
    PriorityFlip, EpochAdapt, IssueStall, KernelBoundary,
)
