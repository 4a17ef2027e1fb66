"""Workload characterisation (Figure 5 of the paper).

Both halves of Figure 5 are measured by the simulator's baseline runs
and formatted here next to the workload models' specification:

* **Instruction mix** (Figure 5a) — every trace instruction issues
  exactly once, so a run's per-type issue counts are its trace's mix;
  :func:`instruction_mix_table` turns them into fractions beside the
  profile's specified mix.
* **Active-warp population** (Figure 5b) — a *runtime* property (how many
  warps sit in the active set each cycle); :func:`active_warp_rows`
  formats those measurements next to the paper's reference values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.workloads.specs import get_profile


def instruction_mix_table(issued: Mapping[str, Mapping[OpClass, int]],
                          ) -> List[Dict[str, float]]:
    """Figure 5a data: one row per benchmark with per-type fractions.

    Args:
        issued: benchmark name -> instructions issued per type, as in
            ``SimResult.stats.issued_by_class`` of a baseline run.

    Rows carry both the *measured* mix and the *specified* mix from the
    profile so calibration drift is visible.
    """
    rows: List[Dict[str, float]] = []
    for name, counts in issued.items():
        total = sum(counts.values())
        spec_mix = get_profile(name).spec.mix
        row: Dict[str, float] = {"benchmark": name}  # type: ignore[dict-item]
        for cls in ALL_OP_CLASSES:
            row[cls.short_name] = counts[cls] / total if total else 0.0
            row[f"spec_{cls.short_name}"] = spec_mix.get(cls, 0.0)
        rows.append(row)
    return rows


def active_warp_rows(measured: Mapping[str, Tuple[float, float]],
                     ) -> List[Dict[str, float]]:
    """Figure 5b data rows from simulator measurements.

    Args:
        measured: benchmark name -> (average, maximum) active-warp count,
            as produced by ``SimResult.stats`` in the harness.

    Returns:
        Rows with measured and paper-reference average/maximum, sorted by
        descending measured average (the paper sorts Fig. 5b this way).
    """
    rows: List[Dict[str, float]] = []
    for name, (avg, peak) in measured.items():
        profile = get_profile(name)
        rows.append({
            "benchmark": name,  # type: ignore[dict-item]
            "avg_active_warps": avg,
            "max_active_warps": peak,
            "paper_avg": profile.paper_avg_active_warps,
            "paper_max": profile.paper_max_active_warps,
        })
    rows.sort(key=lambda r: -float(r["avg_active_warps"]))
    return rows


def count_low_occupancy(rows: Iterable[Mapping[str, float]],
                        threshold: float = 10.0) -> int:
    """How many benchmarks average fewer than ``threshold`` active warps.

    The paper reports this as "only 5 out of 18 benchmarks have fewer
    than ten active warps on average" (section 4).
    """
    return sum(1 for row in rows
               if float(row["avg_active_warps"]) < threshold)
