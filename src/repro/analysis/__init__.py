"""Analysis utilities that turn simulator output into the paper's figures.

* :mod:`repro.analysis.idle_periods` -- idle-period histogram regions
  (Figure 3) and summary statistics.
* :mod:`repro.analysis.correlation` -- Pearson correlation between
  critical wakeups and runtime (Figure 6).
* :mod:`repro.analysis.occupancy` -- per-cycle busy/idle strip charts
  (Figure 4's view, as an attachable recorder).
* :mod:`repro.analysis.timeline` -- epoch-binned power traces per
  gating domain.
* :mod:`repro.analysis.stalls` -- issue-stall breakdowns per run.
* :mod:`repro.analysis.paper` -- the paper-reported reference values.
* :mod:`repro.analysis.report` -- plain-text table rendering for the
  benchmark harness output.
"""

from repro.analysis.idle_periods import (
    IdleRegions,
    region_fractions,
    histogram_series,
)
from repro.analysis.correlation import pearson_r
from repro.analysis.occupancy import OccupancyRecorder
from repro.analysis.timeline import PowerTimeline
from repro.analysis.stalls import stalls_per_kilocycle
from repro.analysis.report import format_table, format_fraction

__all__ = [
    "IdleRegions",
    "region_fractions",
    "histogram_series",
    "pearson_r",
    "OccupancyRecorder",
    "PowerTimeline",
    "stalls_per_kilocycle",
    "format_table",
    "format_fraction",
]
