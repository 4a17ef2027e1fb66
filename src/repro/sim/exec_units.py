"""Execution-unit pipelines.

Each :class:`ExecPipeline` models one dispatch port plus the instructions
in flight behind it:

* An **SP cluster pipeline** (INT or FP) has initiation interval 1 — its
  16 double-clocked CUDA cores accept one 32-thread warp instruction per
  issue cycle — and a 4-cycle result latency (GPGPU-Sim Fermi default
  quoted in section 3.1 of the paper).
* The **SFU group** (4 units) occupies its port for 8 cycles per warp.
* The **LDST group** (16 units) occupies its port for 1 cycle per warp
  (a fully coalesced access; ``SMConfig.ldst_initiation_interval``);
  leaving the LDST pipeline hands the access to the memory model.

A pipeline is *busy* while any instruction is in flight or its port is
held; power gating is only legal when a pipeline is completely drained,
and the SM enforces that before asking a controller to gate.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.optypes import ExecUnitKind


class ExecPipeline:
    """One execution pipeline with a single dispatch port.

    Attributes:
        kind: Unit kind (INT / FP / SFU / LDST).
        name: Human-readable identity, e.g. ``"INT0"`` for the integer
            pipeline of SP cluster 0.
        initiation_interval: Cycles the dispatch port is held per
            instruction.
    """

    __slots__ = ("kind", "name", "initiation_interval", "_port_free_at",
                 "_in_flight", "_seq", "issued_count", "lane_work",
                 "busy_until", "_span_start", "tracker")

    def __init__(self, kind: ExecUnitKind, name: str,
                 initiation_interval: int = 1) -> None:
        if initiation_interval < 1:
            raise ValueError("initiation_interval must be >= 1")
        self.kind = kind
        self.name = name
        self.initiation_interval = initiation_interval
        self._port_free_at = 0
        # Min-heap of (finish_cycle, seq, warp_slot, inst) to drain in
        # order; plain tuples, so an issue builds no Python object.
        self._in_flight: List[Tuple[int, int, int, Instruction]] = []
        self._seq = 0
        self.issued_count = 0
        #: Accumulated active-lane fractions of issued instructions; the
        #: dynamic-energy weight of this pipeline's work (a fully
        #: converged instruction contributes 1.0, an 8-lane one 0.25).
        self.lane_work = 0.0
        #: Busy watermark: after the cycle's writeback drain, the
        #: pipeline is busy at cycle ``c`` iff ``c < busy_until``.  The
        #: watermark is maintained at issue only (max of port release
        #: and every in-flight finish; instruction latencies are >= 1,
        #: so every contribution lies strictly beyond its issue cycle),
        #: which is what lets the power/stats update stop asking the
        #: completion heap every cycle.  Note the equivalence holds
        #: *post-drain*: before writeback an instruction finishing this
        #: very cycle still sits in the heap, so pre-writeback callers
        #: (the fast-forward planner) must keep using :meth:`is_busy`.
        self.busy_until = 0
        # Start cycle of the busy period currently open at the
        # watermark; [._span_start, busy_until) is the not-yet-
        # integrated busy span of the attached idle tracker.
        self._span_start = 0
        #: Span-accumulating :class:`~repro.sim.stats.IdlePeriodTracker`
        #: bound by the SM; None for standalone pipelines (unit tests).
        #: With a tracker bound, busy/idle spans are integrated lazily
        #: at issue boundaries and flushed by :meth:`finalize_tracker` —
        #: zero tracker work on cycles where nothing issues.
        self.tracker = None

    # ------------------------------------------------------------------
    # issue side
    # ------------------------------------------------------------------

    def issue(self, cycle: int, warp_slot: int, inst: Instruction) -> int:
        """Dispatch ``inst``; returns its pipeline-exit cycle.

        Raises:
            RuntimeError: if the port is still held (the SM's issue
                walk checks first — issuing into a held port would
                silently break the structural-hazard model).
        """
        if cycle < self._port_free_at:
            raise RuntimeError(
                f"{self.name}: port busy until {self._port_free_at}, "
                f"issue attempted at {cycle}")
        port_free = cycle + self.initiation_interval
        self._port_free_at = port_free
        finish = cycle + inst.latency
        until = self.busy_until
        if cycle >= until:
            # A new busy period opens here: integrate the previous busy
            # period and the idle gap before it into the tracker.
            tracker = self.tracker
            if tracker is not None:
                tracker.observe_busy_span(until - self._span_start)
                tracker.observe_idle_span(cycle - until)
            self._span_start = cycle
            until = cycle
        new_until = finish if finish >= port_free else port_free
        if new_until > until:
            until = new_until
        self.busy_until = until
        heapq.heappush(self._in_flight, (finish, self._seq, warp_slot, inst))
        self._seq += 1
        self.issued_count += 1
        self.lane_work += inst.active_lanes / 32.0  # lane_fraction, inlined
        return finish

    # ------------------------------------------------------------------
    # completion side
    # ------------------------------------------------------------------

    def drain(self, cycle: int) -> List[Tuple[int, Instruction]]:
        """Pop every ``(warp_slot, inst)`` whose exit cycle has arrived."""
        flight = self._in_flight
        done: List[Tuple[int, Instruction]] = []
        while flight and flight[0][0] <= cycle:
            _, _, slot, inst = heapq.heappop(flight)
            done.append((slot, inst))
        return done

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------

    def is_busy(self, cycle: int) -> bool:
        """True while the pipeline holds work (port held or in flight).

        Exact at any point in the cycle (including before writeback has
        drained completions for ``cycle``); the cheaper
        ``cycle < busy_until`` form is equivalent only post-drain.
        """
        return bool(self._in_flight) or cycle < self._port_free_at

    def finalize_tracker(self, end_cycle: int) -> None:
        """Integrate the tail busy/idle spans into the bound tracker.

        Called once at end of run, before the tracker itself is
        finalized.  The open busy period is clamped to ``end_cycle``
        (per-cycle observation never ran past the end of the run
        either); the remainder, if any, is trailing idleness.
        """
        tracker = self.tracker
        if tracker is None:
            return
        busy_end = self.busy_until
        if busy_end > end_cycle:
            busy_end = end_cycle
        tracker.observe_busy_span(busy_end - self._span_start)
        if end_cycle > busy_end:
            tracker.observe_idle_span(end_cycle - busy_end)

    def next_state_change(self, cycle: int) -> Optional[int]:
        """Next cycle at which this pipeline acts on the outside world.

        For the fast-forward planner: absent new issues, the only
        externally visible pipeline event is a completion draining
        (retire / memory hand-off / scoreboard resolution), so this is
        the oldest in-flight exit cycle.  Port releases are *not*
        events — with no ready warp there are no issue attempts, and
        the port check at a span-ending cycle derives from the stored
        ``_port_free_at`` timestamp.  Returns ``None`` when nothing is
        in flight; a return ``<= cycle`` means a drain is due now and
        the cycle must be real-stepped.
        """
        flight = self._in_flight
        return flight[0][0] if flight else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecPipeline({self.name}, ii={self.initiation_interval}, "
                f"in_flight={len(self._in_flight)})")
