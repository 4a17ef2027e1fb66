#!/usr/bin/env python3
"""Figure 4 walkthrough: how the warp scheduler shapes idle cycles.

Recreates the paper's illustrative example: an active-warp set whose
heads are a mix of eight integer and four floating-point add
instructions (4-cycle latency, single-cycle initiation interval).  The
baseline two-level scheduler issues them greedily in arrival order,
chopping each unit's idleness into one- and two-cycle slivers; GATES
issues all the integer instructions first, so the FP pipeline sleeps in
one long window (and vice versa afterwards).

The script replays both schedules through the real simulator on a
single-cluster, single-issue SM (the figure's simplified machine) and
draws per-cycle occupancy charts.

Usage::

    python examples/figure4_walkthrough.py
"""

from typing import Dict, List

from repro.analysis.occupancy import OccupancyRecorder
from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import fp_op, int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.sm import StreamingMultiprocessor

#: The figure's active-warp set: instruction type per warp, in arrival
#: order (INT1 INT2 FP1 INT3 FP2 INT4 INT5 INT6 INT7 FP3 FP4 INT8).
WARP_TYPES = ["INT", "INT", "FP", "INT", "FP", "INT",
              "INT", "INT", "INT", "FP", "FP", "INT"]

#: Simplified machine of the illustration: one SP cluster, one issue
#: slot, no memory traffic.
FIG4_CONFIG = SMConfig(n_sp_clusters=1, issue_width=1, fetch_width=12,
                       memory=MemoryConfig())


def build_fig4_kernel() -> KernelTrace:
    """One single-instruction warp per entry of the figure's set."""
    warps: List[WarpTrace] = []
    for warp_id, kind in enumerate(WARP_TYPES):
        inst = int_op(dest=0) if kind == "INT" else fp_op(dest=0)
        warps.append(WarpTrace(warp_id=warp_id, instructions=(inst,)))
    return KernelTrace(name="figure4", warps=warps, max_resident_warps=12)


def occupancy_chart(sm: StreamingMultiprocessor) -> Dict[str, str]:
    """Run the SM, recording a per-cycle busy/idle strip per pipeline."""
    recorder = OccupancyRecorder(sm, names=("INT0", "FP0"))
    sm.run()
    return recorder.strips()


def main() -> None:
    print(__doc__)
    print(f"active warp set: {' '.join(WARP_TYPES)}\n")
    for technique, label in ((Technique.BASELINE, "Two-level scheduler"),
                             (Technique.GATES_NO_PG, "GATES")):
        sm = build_sm(build_fig4_kernel(), technique, sm_config=FIG4_CONFIG)
        strips = occupancy_chart(sm)
        print(f"{label}:")
        print(f"  cycle      {''.join(str((i + 1) % 10) for i in range(len(strips['INT0'])))}")
        print(f"  INT pipe   {strips['INT0']}")
        print(f"  FP pipe    {strips['FP0']}\n")
    print("'#' = pipeline holds work, '.' = idle.  GATES coalesces each "
          "unit's idle cycles into one long window per type, which is "
          "what makes power gating worthwhile.")


if __name__ == "__main__":
    main()
