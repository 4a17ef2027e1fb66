"""Per-warp register scoreboard.

The scoreboard tracks, for each resident warp, which architectural
registers have an in-flight producer and when that producer will write
back.  It answers the two questions the two-level scheduler needs every
cycle (section 2.1 of the paper):

* *ready bit* -- are all operands of the warp's next instruction
  available (no busy source or destination register)?
* *pending classification* -- is the warp blocked on a **long-latency**
  producer (an outstanding memory load), which moves it from the active
  set to the pending set?

Completion times are recorded when known (ALU latencies and resolved
memory accesses); a just-issued load whose hit/miss outcome is not yet
determined is *unresolved* and treated as long-latency until the cache
responds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction

#: Sentinel completion cycle for producers whose latency is not yet known
#: (loads between LDST issue and cache access).
UNRESOLVED = -1


class Scoreboard:
    """Register dependence tracking for one warp.

    The SM owns one scoreboard per resident warp slot; slots are recycled
    via :meth:`reset` when a new warp becomes resident.
    """

    __slots__ = ("_busy", "version")

    def __init__(self) -> None:
        #: Producer per register, a two-item list ``[ready_cycle,
        #: is_memory]``: the cycle the value becomes readable (or
        #: UNRESOLVED), and whether a load produces it (a long-latency
        #: candidate).  A completed producer stays until the
        #: register is written again or the slot resets: it blocks
        #: nothing and classifies as nothing (every readiness predicate
        #: compares the current cycle against its ready cycle), and the
        #: map never holds more entries than the warp has registers.
        self._busy: Dict[int, List] = {}
        #: Bumped whenever the producer set changes in a way that can
        #: alter a head instruction's readiness summary (issue, memory
        #: resolution, slot reset).  The SM caches :meth:`head_status`
        #: results keyed on this, so per-cycle classification is two
        #: integer compares instead of an operand scan.
        self.version = 0

    def reset(self) -> None:
        """Forget all producers (new warp occupies the slot)."""
        self._busy.clear()
        self.version += 1

    # ------------------------------------------------------------------
    # issue-side interface
    # ------------------------------------------------------------------

    def record_issue(self, inst: Instruction, cycle: int) -> None:
        """Mark ``inst``'s destination busy at issue time.

        ALU destinations get a known ready cycle (issue + latency); load
        destinations start unresolved and are refined by
        :meth:`resolve_memory` once the cache classifies the access.
        """
        if inst.dest is None:
            return
        self.version += 1
        if inst.is_load:
            self._busy[inst.dest] = [UNRESOLVED, True]
        else:
            self._busy[inst.dest] = [cycle + inst.latency, False]

    # ------------------------------------------------------------------
    # completion-side interface
    # ------------------------------------------------------------------

    def resolve_memory(self, reg: int, ready_cycle: int) -> None:
        """Set the writeback time of an outstanding load's destination."""
        producer = self._busy.get(reg)
        if producer is None or not producer[1]:
            raise KeyError(f"register r{reg} has no outstanding load")
        producer[0] = ready_cycle
        self.version += 1

    # ------------------------------------------------------------------
    # incremental classification support
    # ------------------------------------------------------------------

    def head_status(self, inst: Instruction,
                    pending_threshold: int) -> Tuple[int, int, bool]:
        """Absolute-cycle readiness summary of ``inst``.

        Returns ``(ready_at, mem_until, unresolved)`` such that, for any
        cycle while :attr:`version` is unchanged:

        * *ready* (RAW/WAW clean: every operand register's producer
          has reached its ready cycle) ⇔ ``not unresolved and
          c >= ready_at``;
        * *pending* (waits on a load producer that is still unresolved
          or more than ``pending_threshold`` cycles from writing back,
          the two-level scheduler's pending-set criterion) ⇔
          ``unresolved or c < mem_until``.

        This is what lets the SM classify a warp per cycle with two
        integer compares: the summary only changes when a producer is
        recorded or resolved (both bump :attr:`version`), never with the
        passage of time.

        The summary doubles as the scoreboard's next-state-change report
        for the fast-forward planner: while :attr:`version` holds, the
        *only* cycles at which this head's classification can move are
        ``mem_until`` (pending set -> active set) and ``ready_at`` (the
        ready flip, always past ``mem_until`` for a memory-blocked
        head), so those two bounds are exactly what a quiescent span
        must not cross.  An ``unresolved`` head pends until an LDST
        completion resolves it — an event the pipeline drain bounds
        already cover.
        """
        ready_at = 0
        mem_until = 0
        unresolved = False
        busy = self._busy
        if busy:
            get = busy.get
            dest = inst.dest
            # The operands, inlined: sources, then the destination.
            for reg in (inst.srcs if dest is None else inst.srcs + (dest,)):
                producer = get(reg)
                if producer is None:
                    continue
                ready, is_memory = producer
                if ready == UNRESOLVED:
                    unresolved = True
                    continue
                if ready > ready_at:
                    ready_at = ready
                if is_memory:
                    limit = ready - pending_threshold
                    if limit > mem_until:
                        mem_until = limit
        return ready_at, mem_until, unresolved
