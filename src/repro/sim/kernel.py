"""The SM's stepping engine for fast-forward runs.

A fast-forward run (``fast_forward=True``) is one loop in
:meth:`DenseStepKernel.run`: each cycle the span planner
(:mod:`repro.sim.fastforward`) is asked for a quiet span; if it finds
one the clock jumps over it, otherwise the kernel steps the cycle.
Stepping a cycle is dominated by the per-warp Python dispatch of
classification, so the kernel runs the SM's own stages and replaces
only that one: it keeps the classification up to date by delta instead
of re-deriving it every cycle.  The serial ``_step`` path stays the
oracle it is pinned against.

Every other stage is the SM's single copy, called in ``_step``'s order:
writeback (:meth:`~StreamingMultiprocessor._writeback`, which also
reports the slots whose load resolved), warp management, fetch, the
stamp-guarded head refresh (``_refresh_head``), the blackout flags
(``_blackout_flags``), the scheduler's own ``order`` over the same view
fields ``_classify`` fills, the issue walk with its stall accounting and
event publishes (``_walk``), and the power update.  A kernel-stepped
cycle is therefore bit-identical to the same cycle stepped serially;
the golden identity harness pins that for every technique.

What the kernel owns:

* **Sync** — at the first stepped cycle, and again after any residency
  change, every resident slot's cached head summary (the
  ``(popped, scoreboard version)``-stamped scalars that ``_classify``
  also reads) is classified once, seeding the incremental state below.
  An unchanged warp costs two integer compares.
* **Per cycle** — each slot carries a category (no head / unresolved /
  memory-pending / active-not-ready / ready); aggregate counts (active,
  pending, unresolved), the per-class ACTV counters and the sorted
  ready and per-class ready slot lists change only when a slot's
  category does.  They are bound to the scheduler view
  (``actv_counts``, ``ready``, ``ready_by_class``) at each sync, so
  a cycle copies none of them.  Issued slots re-sync after the power
  update, so the view holds still from classification to the end of
  the cycle, as the serial step's does.  Time-driven
  changes (a pending window expiring at ``mem_until``, a ready flip
  at ``ready_at``) come from a min-heap of per-slot transition events;
  state-driven changes come from exactly the events that can
  invalidate the head cache.

This state is a fast-forward run's one classification: it is current
after every stepped cycle, and the span planner reads it (ready lists,
heap minimum, counts) instead of scanning warps.  A skipped span needs
no resync.  The planner ends every span at the next pipeline
completion, memory event, launch and head ``mem_until``/``ready_at``
threshold, so no warp's state changes inside it; a transition event
due at the span's end fires in stage 4 of the cycle that ends it,
exactly as it would after stepping the span.

The synchronisation rules mirror the head cache's invalidation
conditions, which are complete by construction:

* ``scoreboard.version`` bumps only in ``record_issue`` (the issue
  walk), ``resolve_memory`` (writeback / retry drains) and ``reset``
  (slot reassignment);
* the popped-count half of the stamp changes only when an issue pops
  the buffer or a slot is (re)assigned;
* fetch appends move ``fetch_pc`` and the buffer length together, so a
  non-empty head row stays valid under fetch — only empty→non-empty
  transitions (tracked in ``_empty``) need a first classification;
* residency changes always replace the ``sm._resident`` list object,
  so one identity check per cycle detects them and triggers a full
  resync;
* between version bumps, recomputing a head summary at any cycle
  yields identical values (the cache's documented invariant), so the
  cached absolute thresholds driving the event heap never go stale.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import List, Set

#: Per-slot categories of the incremental classification.  Ordered so
#: ``cat >= CAT_WAIT`` means "in the active set".
CAT_NONE, CAT_UNRES, CAT_PEND, CAT_WAIT, CAT_READY = range(5)


class DenseStepKernel:
    """Steps the cycles of a fast-forward run the planner cannot skip.

    Built by :meth:`StreamingMultiprocessor.run` when ``fast_forward``
    is set; one instance serves one SM run.
    """

    def __init__(self, sm) -> None:
        self.sm = sm
        #: Cycles stepped through the kernel (diagnostics only — never
        #: part of a run's metrics, like the forwarder's skip counters).
        self.cycles = 0
        n_slots = len(sm.warps)
        #: The ``sm._resident`` list the state below was synced against;
        #: residency changes always replace that list object, so one
        #: identity check per cycle detects them (None: never synced).
        self._synced_resident = None
        #: Resident slots whose I-buffer is empty with trace left to
        #: fetch: the only slots a fetch tick can flip NO_HEAD → KNOWN.
        self._empty: Set[int] = set()
        #: Slots whose scoreboard resolved a load this writeback (their
        #: classification is stale until refreshed).
        self._dirty: Set[int] = set()
        # --- incremental classification state --------------------------
        self._cat: List[int] = [CAT_NONE] * n_slots
        self._opx: List[int] = [0] * n_slots
        #: Per-slot generation counter; a heap event older than the
        #: slot's generation is orphaned (lazy invalidation).
        self._gen: List[int] = [0] * n_slots
        self._heap: list = []
        self._n_active = 0
        #: Pending slots (unresolved or memory-pending heads), and the
        #: unresolved ones among them.
        self._n_pending = 0
        self._n_unresolved = 0
        #: Active slots per op-class index: the view's own ACTV list,
        #: which ``sm.actv_counts`` is too.
        self._actv4: List[int] = sm._view.actv_counts
        #: Ready slots overall and per op-class index (both ascending):
        #: the view's ``ready`` and ``ready_by_class``.
        self._ready_all: List[int] = []
        self._ready_cls: List[List[int]] = [[], [], [], []]

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, start: int, end: int, forwarder) -> int:
        """Advance the SM from ``start`` until it drains or hits ``end``.

        Each cycle ``forwarder.advance`` either skips a quiet span or
        hands the cycle back to be stepped here.  Returns the first
        cycle not yet executed.
        """
        sm = self.sm
        advance = forwarder.advance
        step = self._cycle
        cycle = start
        stepped = 0
        while cycle < end:
            if not sm._resident and not sm._retry \
                    and not sm._unlaunched:
                break  # drained (``sm._drained``, inlined)
            target = advance(cycle)
            if target != cycle:
                cycle = target
                continue
            step(cycle)
            stepped += 1
            cycle += 1
        self.cycles += stepped
        return cycle

    # ------------------------------------------------------------------
    # classification state maintenance
    # ------------------------------------------------------------------

    def _sync_all(self, cycle: int) -> None:
        """Rebuild the whole classification state at ``cycle``.

        Called at the first stepped cycle and after any residency
        change.  Warp caches whose ``(popped, version)`` stamp is
        unchanged cost two integer compares each.
        """
        sm = self.sm
        self._synced_resident = sm._resident
        n_slots = len(sm.warps)
        self._cat = [CAT_NONE] * n_slots
        self._gen = [0] * n_slots
        self._heap = []
        self._n_active = 0
        self._n_pending = 0
        self._n_unresolved = 0
        self._actv4[:] = (0, 0, 0, 0)
        view = sm._view
        view.ready = self._ready_all = []
        view.ready_by_class = self._ready_cls = [[], [], [], []]
        empty = self._empty
        empty.clear()
        self._dirty.clear()
        refresh_head = sm._refresh_head
        for warp in sm.warps:
            if warp.trace is None:
                continue
            buf = warp.ibuffer
            if not buf:
                if warp.fetch_pc < warp.trace_len:
                    empty.add(warp.slot)
                continue
            popped = warp.fetch_pc - len(buf)
            if popped != warp.cache_popped \
                    or warp.cache_version != warp.scoreboard.version:
                refresh_head(warp, popped)
            self._classify_slot(warp, cycle)

    def _classify_slot(self, warp, cycle: int) -> None:
        """(Re)derive one slot's category and add its contributions.

        The slot must currently contribute nothing (fresh sync, or
        :meth:`_remove` just ran).  Pushes at most one transition event
        — the earliest future cycle at which the category can change on
        its own — so each slot has at most one live heap entry.
        """
        slot = warp.slot
        gen = self._gen[slot] + 1
        self._gen[slot] = gen
        opx = warp.head_opx
        self._opx[slot] = opx
        if warp.head_unresolved:
            self._cat[slot] = CAT_UNRES
            self._n_pending += 1
            self._n_unresolved += 1
            return
        mem_until = warp.head_mem_until
        if cycle < mem_until:
            self._cat[slot] = CAT_PEND
            self._n_pending += 1
            heappush(self._heap, (mem_until, slot, gen))
            return
        self._n_active += 1
        self._actv4[opx] += 1
        ready_at = warp.head_ready_at
        if cycle >= ready_at:
            self._cat[slot] = CAT_READY
            insort(self._ready_all, slot)
            insort(self._ready_cls[opx], slot)
        else:
            self._cat[slot] = CAT_WAIT
            heappush(self._heap, (ready_at, slot, gen))

    def _remove(self, slot: int) -> None:
        """Retract one slot's contributions (its category becomes NONE)."""
        cat = self._cat[slot]
        if cat >= CAT_WAIT:
            self._n_active -= 1
            opx = self._opx[slot]
            self._actv4[opx] -= 1
            if cat == CAT_READY:
                self._ready_all.remove(slot)
                self._ready_cls[opx].remove(slot)
        elif cat:
            self._n_pending -= 1
            if cat == CAT_UNRES:
                self._n_unresolved -= 1
        self._cat[slot] = CAT_NONE

    def _refresh(self, warp, cycle: int) -> None:
        """Re-sync one non-empty slot after a tracked state change."""
        popped = warp.fetch_pc - len(warp.ibuffer)
        if popped == warp.cache_popped \
                and warp.cache_version == warp.scoreboard.version:
            return  # nothing actually moved; contributions stand
        self.sm._refresh_head(warp, popped)
        self._remove(warp.slot)
        self._classify_slot(warp, cycle)

    def _invalidate(self, slot: int) -> None:
        """Drop a slot that no longer has a head (freed/empty buffer)."""
        self._remove(slot)
        self._gen[slot] += 1  # orphan any in-flight transition event

    # ------------------------------------------------------------------
    # one dense cycle
    # ------------------------------------------------------------------

    def _cycle(self, cycle: int) -> None:
        sm = self.sm

        # stage 1: writeback, collecting the slots whose load resolved
        sm._writeback(cycle, self._dirty)

        # stage 2: warp management; any residency change replaces the
        # _resident list object, which forces a full resync.
        sm._manage_warps(cycle)
        if sm._resident is not self._synced_resident:
            self._sync_all(cycle)
        elif self._dirty:
            warps = sm.warps
            for slot in self._dirty:
                warp = warps[slot]
                if warp.ibuffer:
                    self._refresh(warp, cycle)
            self._dirty.clear()

        # stage 3: fetch; classify heads fetch flipped NO_HEAD -> KNOWN.
        sm.stats.fetched += sm.fetch.tick(sm.warps)
        empty = self._empty
        if empty:
            warps = sm.warps
            for slot in [s for s in empty if warps[s].ibuffer]:
                self._refresh(warps[slot], cycle)
                empty.discard(slot)

        # stage 4: classification = due transition events + aggregates.
        heap = self._heap
        if heap and heap[0][0] <= cycle:
            gen = self._gen
            cat = self._cat
            warps = sm.warps
            while heap and heap[0][0] <= cycle:
                slot = heap[0][1]
                if heappop(heap)[2] != gen[slot]:
                    continue  # orphaned
                if cat[slot] == CAT_WAIT:
                    # ready_at reached: the active slot turns ready.
                    cat[slot] = CAT_READY
                    insort(self._ready_all, slot)
                    insort(self._ready_cls[self._opx[slot]], slot)
                else:
                    self._remove(slot)
                    self._classify_slot(warps[slot], cycle)
        if sm._has_blackout:
            sm._blackout_flags(cycle, sm._view.type_in_blackout)
        stats = sm.stats
        n_active = self._n_active
        stats.active_warp_sum += n_active
        stats.pending_warp_sum += self._n_pending
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active

        # stage 5: the scheduler orders the view, then the SM's issue
        # walk.
        issued = sm._walk(cycle, sm.scheduler.order(cycle, sm._view))

        # stage 6: power update, cycle count, hooks
        sm._update_power(cycle)
        stats.cycles += 1
        for hook in sm.hooks:
            hook.on_cycle(cycle)

        # An issue pops the buffer and bumps the version: issued slots
        # re-sync once the cycle is done with the view.
        if issued:
            warps = sm.warps
            for slot in issued:
                warp = warps[slot]
                if warp.ibuffer:
                    self._refresh(warp, cycle)
                else:
                    self._invalidate(slot)
                    if warp.fetch_pc < warp.trace_len:
                        empty.add(slot)


__all__ = ["DenseStepKernel", "CAT_NONE", "CAT_UNRES", "CAT_PEND",
           "CAT_WAIT", "CAT_READY"]
