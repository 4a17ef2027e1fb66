"""Memory path: L1 data cache, MSHRs and a DRAM latency model.

The memory model exists to create the *pending-warp* dynamics the
two-level scheduler is built around: warps blocked on L1 misses leave the
active set for hundreds of cycles, shrinking the population the warp
schedulers (and GATES) pick from — the behaviour Figure 5b characterises.

Model summary:

* Set-associative, LRU L1 with allocate-on-read-miss; stores are
  write-through / no-allocate and never block the issuing warp.
* Misses to the same line merge into one MSHR entry; a full MSHR file
  back-pressures the LDST pipeline (the SM retries the access in its
  writeback stage, first in the cycle it is rejected).
* Latencies are additive constants per outcome: hit, shared, or miss
  (DRAM round trip, set per benchmark profile).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction, MemorySpace
from repro.sim.config import MemoryConfig


class L1Cache:
    """Set-associative LRU cache over line-granular addresses."""

    def __init__(self, sets: int, ways: int) -> None:
        if sets < 1 or (sets & (sets - 1)):
            raise ValueError("sets must be a positive power of two")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.sets = sets
        self.ways = ways
        # One OrderedDict per set: line -> None, MRU at the end.
        self._lines: List[OrderedDict] = [OrderedDict() for _ in range(sets)]

    def lookup(self, line_addr: int, allocate: bool) -> bool:
        """Probe for ``line_addr``; returns True on hit.

        On a hit the line becomes MRU.  On a miss with ``allocate`` the
        line is filled, evicting the LRU way if the set is full.
        """
        index = line_addr & (self.sets - 1)
        cache_set = self._lines[index]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            return True
        if allocate:
            if len(cache_set) >= self.ways:
                cache_set.popitem(last=False)
            cache_set[line_addr] = None
        return False

    def flush(self) -> None:
        """Invalidate every line."""
        for cache_set in self._lines:
            cache_set.clear()


@dataclass
class MemoryStats:
    """Counters exposed by the memory subsystem."""

    loads: int = 0
    stores: int = 0
    hits: int = 0
    misses: int = 0
    merged_misses: int = 0
    shared_accesses: int = 0
    mshr_stalls: int = 0

    @property
    def miss_rate(self) -> float:
        """Global-load miss rate (merged misses count as misses)."""
        probed = self.hits + self.misses + self.merged_misses
        if probed == 0:
            return 0.0
        return (self.misses + self.merged_misses) / probed


class MemorySubsystem:
    """L1 + MSHR + fixed-latency DRAM for one SM."""

    def __init__(self, config: MemoryConfig,
                 dram_latency: Optional[int] = None) -> None:
        self.config = config
        self.dram_latency = (dram_latency if dram_latency is not None
                             else config.dram_latency)
        self.l1 = L1Cache(config.l1_sets, config.l1_ways)
        self.stats = MemoryStats()
        # line -> completion cycle of the outstanding fill.
        self._outstanding: Dict[int, int] = {}
        # Min-heap of (ready_cycle, seq, warp_slot) load deliveries.
        self._pending: List[Tuple[int, int, int]] = []
        self._seq = 0
        #: Earliest cycle at which :meth:`tick` has any work to do —
        #: exactly ``min`` over scheduled deliveries and outstanding
        #: line fills, maintained at access/schedule time and after
        #: every working tick.  The SM's writeback stage reads this to
        #: skip the tick entirely on quiet cycles.
        self.next_event: float = float("inf")

    # ------------------------------------------------------------------
    # access side (called when an instruction exits the LDST pipeline)
    # ------------------------------------------------------------------

    def access(self, cycle: int, warp_slot: int,
               inst: Instruction) -> Optional[int]:
        """Perform ``inst``'s memory access at ``cycle``.

        Returns:
            The cycle the load value becomes readable, or ``None`` when
            the access cannot be accepted this cycle (MSHR file full) and
            must retry.  Stores always complete immediately from the
            warp's point of view.
        """
        if not (inst.is_load or inst.is_store):
            raise ValueError(f"{inst.opcode} is not a memory instruction")

        if inst.is_store:
            self.stats.stores += 1
            if inst.mem_space is MemorySpace.GLOBAL:
                # Write-through, no-allocate: update LRU on hit only.
                self.l1.lookup(inst.line_addr, allocate=False)
            return cycle

        if inst.mem_space is MemorySpace.SHARED:
            self.stats.loads += 1
            self.stats.shared_accesses += 1
            ready = cycle + self.config.shared_latency
            self._schedule(ready, warp_slot)
            return ready

        line = inst.line_addr
        if line in self._outstanding:
            # Miss to an in-flight line: merge into the existing MSHR.
            self.stats.loads += 1
            self.stats.merged_misses += 1
            ready = self._outstanding[line]
            self._schedule(ready, warp_slot)
            return ready

        if self.l1.lookup(line, allocate=False):
            self.stats.loads += 1
            self.stats.hits += 1
            ready = cycle + self.config.l1_hit_latency
            self._schedule(ready, warp_slot)
            return ready

        if len(self._outstanding) >= self.config.mshr_entries:
            # Rejected: counted here on every attempt, as a load only
            # once it is accepted.  The SM's writeback stage retries a
            # freshly rejected access once more in the same cycle, so
            # that first rejection counts twice.
            self.stats.mshr_stalls += 1
            return None

        self.stats.loads += 1
        self.stats.misses += 1
        ready = cycle + self._miss_latency(line, cycle)
        self._outstanding[line] = ready
        self._schedule(ready, warp_slot)
        return ready

    # ------------------------------------------------------------------
    # completion side
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> List[int]:
        """Retire every request whose value arrives at ``cycle``.

        Returns the warp slots of the delivered loads, in delivery
        order.  Fills the L1 for completed misses and frees their MSHR
        entries.
        """
        done: List[int] = []
        if cycle < self.next_event:
            return done
        pending = self._pending
        while pending and pending[0][0] <= cycle:
            done.append(heapq.heappop(pending)[2])
        finished_lines = [line for line, ready in self._outstanding.items()
                          if ready <= cycle]
        for line in finished_lines:
            del self._outstanding[line]
            self.l1.lookup(line, allocate=True)
        bound: float = float("inf")
        if self._pending:
            bound = self._pending[0][0]
        if self._outstanding:
            earliest = min(self._outstanding.values())
            if earliest < bound:
                bound = earliest
        self.next_event = bound
        return done

    def next_completion_cycle(self) -> float:
        """Earliest cycle at which :meth:`tick` has any work to do.

        Fast-forward bound: scheduled load deliveries and outstanding
        line fills are the only time-driven state here, and both carry
        explicit ready cycles — :attr:`next_event` tracks their minimum
        exactly (updated on schedule and after every working tick).
        Returns ``inf`` when the subsystem is completely quiet.
        """
        return self.next_event

    def _miss_latency(self, line: int, cycle: int) -> int:
        """DRAM round trip with deterministic queueing jitter.

        A cheap integer hash of (line, access cycle) spreads each miss
        uniformly over ``dram_latency * [1 - jitter, 1 + jitter]``.  This
        de-synchronises warps blocked in the same miss wave — without it,
        lock-step warps return together and execution units see one long,
        trivially gateable idle window instead of the fragmented idleness
        real memory contention produces.
        """
        jitter = self.config.dram_jitter
        if jitter == 0.0:
            return self.dram_latency
        # SplitMix64-style avalanche for a uniform, reproducible draw.
        x = (line * 0x9E3779B97F4A7C15 + cycle * 0xBF58476D1CE4E5B9) \
            & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        unit = (x & 0xFFFFFF) / float(0x1000000)  # [0, 1)
        scale = 1.0 + jitter * (2.0 * unit - 1.0)
        return max(1, round(self.dram_latency * scale))

    def _schedule(self, ready: int, warp_slot: int) -> None:
        heapq.heappush(self._pending, (ready, self._seq, warp_slot))
        self._seq += 1
        if ready < self.next_event:
            self.next_event = ready
