"""Issue-stall breakdown analysis.

The SM counts why issue opportunities went unused
(:class:`repro.sim.stats.IssueStalls`): nothing ready, structural port
conflicts, blackout denials, wakeups in progress, MSHR back-pressure.
These are event counters (several can fire per cycle while the issue
walk scans candidates), so the useful view is *relative*: which hazard
dominates, and how a technique shifts the profile — e.g. Blackout
converts ``unit_waking`` stalls into ``unit_gated`` denials, and GATES
trades ``no_ready_warp`` for structural pressure on the prioritised
unit.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.sm import SimResult

#: Stall categories in display order.
STALL_FIELDS = ("no_ready_warp", "structural", "unit_gated",
                "unit_waking", "mshr_full")


def stall_counts(result: SimResult) -> Dict[str, int]:
    """Raw stall-event counters of one run."""
    stalls = result.stats.stalls
    return {field: getattr(stalls, field) for field in STALL_FIELDS}


def stalls_per_kilocycle(result: SimResult) -> Dict[str, float]:
    """Stall events per 1000 cycles (comparable across run lengths)."""
    if result.cycles == 0:
        raise ValueError("degenerate run with zero cycles")
    return {field: 1000.0 * count / result.cycles
            for field, count in stall_counts(result).items()}


def stall_rows(results: Dict[str, SimResult]) -> List[List[object]]:
    """One row per labelled run: label + per-category events/kcycle."""
    rows: List[List[object]] = []
    for label, result in results.items():
        per_kcyc = stalls_per_kilocycle(result)
        rows.append([label] + [per_kcyc[f] for f in STALL_FIELDS])
    return rows


STALL_HEADERS = ("run",) + STALL_FIELDS
