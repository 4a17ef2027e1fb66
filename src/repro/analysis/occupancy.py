"""Per-cycle pipeline occupancy recording.

:class:`OccupancyRecorder` attaches to a simulator as a cycle hook and
records a busy/idle strip per pipeline — the raw material of the
paper's Figure 4 illustration and a handy debugging view for scheduler
behaviour ("why is FP1 never busy?").

Usage::

    sm = build_sm(kernel, Technique.GATES_NO_PG)
    recorder = OccupancyRecorder(sm)       # self-registers as a hook
    sm.run()
    print(recorder.to_text())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Glyphs for the strip chart.
BUSY, IDLE = "#", "."


class OccupancyRecorder:
    """Cycle-by-cycle busy/idle strips for selected pipelines."""

    def __init__(self, sm, names: Optional[Sequence[str]] = None,
                 max_cycles: int = 10_000) -> None:
        """Attach to ``sm`` (a :class:`StreamingMultiprocessor`).

        Args:
            sm: The simulator to observe; the recorder registers itself
                as a cycle hook immediately.
            names: Pipelines to record (default: all of them).
            max_cycles: Recording cap — strips are for humans; a
                million-cycle strip is not (recording silently stops at
                the cap, the run itself is unaffected).
        """
        if max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        available = {pipe.name: pipe for pipe in sm.pipelines}
        selected = tuple(names) if names is not None else tuple(available)
        unknown = [n for n in selected if n not in available]
        if unknown:
            raise KeyError(f"unknown pipelines {unknown}; "
                           f"available: {sorted(available)}")
        self._pipes = [available[n] for n in selected]
        self._strips: Dict[str, List[str]] = {n: [] for n in selected}
        self.max_cycles = max_cycles
        self._recorded = 0
        self.truncated = False
        sm.add_hook(self)

    def on_cycle(self, cycle: int) -> None:
        """Cycle hook: sample every selected pipeline's busy state."""
        if self._recorded >= self.max_cycles:
            self.truncated = True
            return
        for pipe in self._pipes:
            self._strips[pipe.name].append(
                BUSY if pipe.is_busy(cycle) else IDLE)
        self._recorded += 1

    # ------------------------------------------------------------------

    def strip(self, name: str) -> str:
        """The busy/idle strip of one pipeline."""
        return "".join(self._strips[name])

    def strips(self) -> Dict[str, str]:
        """All recorded strips, keyed by pipeline name."""
        return {name: "".join(chars)
                for name, chars in self._strips.items()}

    def longest_idle_run(self, name: str) -> int:
        """Length of the longest contiguous idle window recorded."""
        return max((len(run) for run in self.strip(name).split(BUSY)),
                   default=0)

    def busy_cycles(self, name: str) -> int:
        """Busy cycles recorded for one pipeline."""
        return self._strips[name].count(BUSY)

    def to_text(self, ruler: bool = True) -> str:
        """Render all strips as an aligned chart."""
        lines: List[str] = []
        width = max((len(n) for n in self._strips), default=0)
        if ruler and self._recorded:
            digits = "".join(str((i + 1) % 10)
                             for i in range(self._recorded))
            lines.append(f"{'cycle'.ljust(width)}  {digits}")
        for name in self._strips:
            lines.append(f"{name.ljust(width)}  {self.strip(name)}")
        if self.truncated:
            lines.append(f"(recording capped at {self.max_cycles} cycles)")
        return "\n".join(lines)
