"""Figure 4: the scheduler's effect on idle cycles (illustration).

Replays the paper's scripted 12-entry active-warp set (eight INT and
four FP single-instruction warps; 4-cycle latency, II = 1) through the
real simulator on the figure's simplified single-cluster, single-issue
machine, and checks that GATES coalesces each unit's idleness.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))

from figure4_walkthrough import (  # noqa: E402
    FIG4_CONFIG,
    build_fig4_kernel,
    occupancy_chart,
)
from repro.core.techniques import (  # noqa: E402
    Technique,
    build_sm,
)

from conftest import print_figure  # noqa: E402


def longest_idle_run(strip: str) -> int:
    return max((len(run) for run in strip.split("#")), default=0)


def regenerate():
    charts = {}
    for technique in (Technique.BASELINE, Technique.GATES_NO_PG):
        sm = build_sm(build_fig4_kernel(), technique, sm_config=FIG4_CONFIG)
        charts[technique] = occupancy_chart(sm)
    return charts


def test_fig04_schedule_illustration(benchmark):
    charts = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    lines = []
    for technique, strips in charts.items():
        lines.append(f"{technique.value}:")
        lines.append(f"  INT {strips['INT0']}")
        lines.append(f"  FP  {strips['FP0']}")
    lines.append("")
    lines.append("paper: baseline chops FP idleness into 1-2 cycle "
                 "slivers; GATES gives INT four and FP eight "
                 "consecutive idle cycles")
    print_figure("FIG 4", "\n".join(lines))

    base = charts[Technique.BASELINE]
    gates = charts[Technique.GATES_NO_PG]
    # GATES strictly lengthens the longest idle window of each unit.
    assert longest_idle_run(gates["FP0"]) > longest_idle_run(base["FP0"])
    assert longest_idle_run(gates["FP0"]) >= 8
    # All twelve instructions execute under both schedules.
    assert base["INT0"].count("#") >= 8
    assert gates["INT0"].count("#") >= 8
