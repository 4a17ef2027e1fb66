"""Warp and kernel trace containers.

A :class:`WarpTrace` is the full static instruction sequence one warp will
execute; a :class:`KernelTrace` bundles the traces of every warp in a
kernel launch together with launch metadata.  Traces are immutable once
built, so a single kernel trace can be replayed under every scheduling /
power-gating technique for an apples-to-apples comparison — exactly how
the paper compares techniques on identical benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

from repro.isa.instructions import Instruction
from repro.isa.optypes import OpClass


@dataclass(frozen=True)
class WarpTrace:
    """The static instruction sequence of one warp.

    Attributes:
        warp_id: Identifier unique within the kernel.
        instructions: Ordered decoded instructions this warp executes.
    """

    warp_id: int
    instructions: Sequence[Instruction]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    def op_class_counts(self) -> Dict[OpClass, int]:
        """Histogram of instruction types in this warp's trace."""
        counts = {cls: 0 for cls in OpClass}
        for inst in self.instructions:
            counts[inst.op_class] += 1
        return counts


@dataclass(frozen=True)
class KernelTrace:
    """A kernel launch: one trace per warp plus metadata.

    Attributes:
        name: Kernel / benchmark name (used in reports).
        warps: One :class:`WarpTrace` per warp, indexed by position.
        max_resident_warps: Hardware cap on concurrently resident warps
            per SM (48 on Fermi).  Warps beyond the cap launch as earlier
            warps retire, which is how successive thread blocks of a real
            kernel refill the SM.
    """

    name: str
    warps: Sequence[WarpTrace]
    max_resident_warps: int = 48

    def __post_init__(self) -> None:
        if not self.warps:
            raise ValueError("a kernel needs at least one warp")
        if self.max_resident_warps < 1:
            raise ValueError("max_resident_warps must be >= 1")
        ids = [w.warp_id for w in self.warps]
        if len(set(ids)) != len(ids):
            raise ValueError("warp ids must be unique within a kernel")

    @property
    def n_warps(self) -> int:
        """Total number of warps launched by the kernel."""
        return len(self.warps)

    @property
    def total_instructions(self) -> int:
        """Total dynamic instruction count across all warps."""
        return sum(len(w) for w in self.warps)

    def op_class_counts(self) -> Dict[OpClass, int]:
        """Kernel-wide histogram of instruction types."""
        counts = {cls: 0 for cls in OpClass}
        for warp in self.warps:
            for cls, n in warp.op_class_counts().items():
                counts[cls] += n
        return counts

    def op_class_mix(self) -> Dict[OpClass, float]:
        """Kernel-wide instruction-type fractions (sums to 1.0)."""
        counts = self.op_class_counts()
        total = sum(counts.values())
        if total == 0:
            return {cls: 0.0 for cls in OpClass}
        return {cls: n / total for cls, n in counts.items()}
