"""Front end: resident-warp contexts, instruction buffers and fetch.

Mirrors the fetch/decode stage of Figure 1a: decoded instructions land in
a small per-warp instruction buffer (I-buffer) whose head is the entry
the issue stage sees, carrying the valid bit, decoded bits — including
the two-bit instruction type GATES relies on — and the ready bit driven
by the scoreboard.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, List, Optional, Sequence, Set

from repro.isa.instructions import Instruction
from repro.isa.trace import WarpTrace
from repro.sim.scoreboard import Scoreboard


class WarpContext:
    """Runtime state of one resident warp slot.

    Slotted and deliberately property-light on the hot paths: fetch
    visits only the slots in its refill set and classification touches
    the resident warps, so the per-warp state they read (``trace_len``,
    ``trace_insts``, the ``head_*`` classification cache) is stored as
    plain attributes.
    """

    __slots__ = ("slot", "trace", "trace_len", "trace_insts", "fetch_pc",
                 "ibuffer", "refill", "scoreboard", "retired",
                 "outstanding", "cache_popped", "cache_version",
                 "head_inst", "head_opx", "head_ready_at", "head_mem_until",
                 "head_unresolved")

    #: Class-wide assignment generation, bumped on every ``assign``.
    #: A fetch engine rebuilds its refill set whenever this moved since
    #: its last rebuild, so a newly assigned warp is fetched no matter
    #: who assigned it — no wiring between the SM's launch stage and
    #: the fetch engine.
    assign_generation = 0

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.trace: Optional[WarpTrace] = None
        #: len(trace), 0 while unoccupied — ``fetch_pc >= trace_len`` is
        #: the branch the fetch loop takes per warp per cycle.
        self.trace_len = 0
        #: The trace's raw instruction sequence (skips WarpTrace.__getitem__).
        self.trace_insts: Sequence[Instruction] = ()
        self.fetch_pc = 0            # next trace index to fetch
        self.ibuffer: Deque[Instruction] = deque()
        #: The refill set of the fetch engine this warp is bound to
        #: (a private set until the first ``tick`` binds it); ``pop_head``
        #: adds the slot, because issue just made room in its buffer.
        self.refill: Set[int] = set()
        self.scoreboard = Scoreboard()
        self.retired = 0
        #: Instructions issued but not yet fully completed (pipeline or
        #: memory); a slot is only recycled when this drains to zero.
        self.outstanding = 0
        # --- incremental classification cache -------------------------
        # Valid while (cache_popped, cache_version) matches the warp's
        # issued-instruction count and its scoreboard version; holds the
        # head instruction, its op-class index and its absolute-cycle
        # readiness summary (Scoreboard.head_status), so per-cycle
        # classification is integer compares, not operand scans.
        self.cache_popped = -1
        self.cache_version = -1
        self.head_inst: Optional[Instruction] = None
        self.head_opx = 0
        self.head_ready_at = 0
        self.head_mem_until = 0
        self.head_unresolved = False

    # ------------------------------------------------------------------

    def assign(self, trace: WarpTrace) -> None:
        """Occupy this slot with a freshly launched warp."""
        WarpContext.assign_generation += 1
        self.trace = trace
        self.trace_len = len(trace)
        self.trace_insts = trace.instructions
        self.fetch_pc = 0
        self.ibuffer.clear()
        self.scoreboard.reset()
        self.retired = 0
        self.outstanding = 0
        self.cache_popped = -1

    def pop_head(self) -> Instruction:
        """Remove the head instruction at issue; queue a refill while
        the trace has instructions left."""
        if self.fetch_pc < self.trace_len:
            self.refill.add(self.slot)
        return self.ibuffer.popleft()

    def release(self) -> None:
        """Free the slot after the warp fully completes."""
        self.trace = None
        self.trace_len = 0
        self.trace_insts = ()
        self.ibuffer.clear()
        self.scoreboard.reset()
        self.outstanding = 0
        self.cache_popped = -1


class FetchEngine:
    """Round-robin fetch/decode feeding the per-warp I-buffers.

    Fetch visits only the slots of its *refill set*: a superset of the
    slots whose buffer has room and whose trace has instructions left
    (equal to it on a running SM).  A slot enters the set when issue
    pops its head with trace left (``pop_head``) or when it is assigned
    (the next ``tick`` rebuilds the set from a full scan, keyed on
    :attr:`WarpContext.assign_generation`); a visit that finds it full
    or trace-exhausted drops it.  Every slot outside the set would
    fetch nothing, so visiting the set in round-robin order fetches
    exactly what a scan of every slot would.
    """

    def __init__(self, fetch_width: int, ibuffer_entries: int) -> None:
        if fetch_width < 1:
            raise ValueError("fetch_width must be >= 1")
        if ibuffer_entries < 1:
            raise ValueError("ibuffer_entries must be >= 1")
        self.fetch_width = fetch_width
        self.ibuffer_entries = ibuffer_entries
        self._rr_start = 0
        #: Slots that may have room and trace left (see the class doc).
        self._refill: Set[int] = set()
        #: assign_generation at the last rebuild of ``_refill``.
        self._gen = -1

    def _rebuild(self, warps: List[WarpContext]) -> None:
        """Refill set from a full scan; binds every warp to it."""
        refill = self._refill
        refill.clear()
        entries = self.ibuffer_entries
        for warp in warps:
            warp.refill = refill
            if warp.fetch_pc < warp.trace_len \
                    and len(warp.ibuffer) < entries:
                refill.add(warp.slot)
        self._gen = WarpContext.assign_generation

    def tick(self, warps: List[WarpContext]) -> int:
        """Fetch up to ``fetch_width`` instructions into needy buffers.

        Round-robins across warp slots so no warp starves the front end:
        the pointer advances one slot per tick, and the refill set is
        visited in slot order starting from it.  Returns the number of
        instructions fetched (statistics).

        Hot path: cost scales with the refill set, to which issue adds
        at most ``issue_width`` slots per cycle, not with the slot count.
        """
        n = len(warps)
        if n == 0:
            return 0
        if self._gen != WarpContext.assign_generation:
            self._rebuild(warps)
        start = self._rr_start
        self._rr_start = (start + 1) % n
        refill = self._refill
        if not refill:
            return 0
        fetched = 0
        width = self.fetch_width
        entries = self.ibuffer_entries
        if len(refill) * entries <= width:
            # Every slot takes at most ``entries``, so each fills in
            # full (or exhausts its trace) and leaves the set: the
            # visiting order cannot matter.
            for slot in refill:
                warp = warps[slot]
                pc = warp.fetch_pc
                take = entries - len(warp.ibuffer)
                room = warp.trace_len - pc
                if room < take:
                    take = room
                if take > 0:
                    warp.ibuffer.extend(warp.trace_insts[pc:pc + take])
                    warp.fetch_pc = pc + take
                    fetched += take
            refill.clear()
            return fetched
        order = sorted(refill)
        first = bisect_left(order, start)
        if first:
            order = order[first:] + order[:first]
        for slot in order:
            warp = warps[slot]
            pc = warp.fetch_pc
            room = warp.trace_len - pc
            buf = warp.ibuffer
            free = entries - len(buf)
            if room <= 0 or free <= 0:
                refill.discard(slot)
                continue
            take = width - fetched
            if take >= free or take >= room:
                # This fill fills the buffer or exhausts the trace: the
                # slot leaves the set until issue pops it again.
                take = free if free < room else room
                refill.discard(slot)
            insts = warp.trace_insts
            for k in range(pc, pc + take):
                buf.append(insts[k])
            warp.fetch_pc = pc + take
            fetched += take
            if fetched >= width:
                break
        return fetched

    def skip_idle_cycles(self, span: int, n_warps: int) -> None:
        """Replay ``span`` ticks on a quiescent front end.

        When every occupied warp is trace-exhausted or has a full
        I-buffer, ``tick`` fetches nothing and only rotates the
        round-robin pointer — which this replays in bulk for the idle
        fast-forward path.
        """
        if n_warps:
            self._rr_start = (self._rr_start + span) % n_warps
