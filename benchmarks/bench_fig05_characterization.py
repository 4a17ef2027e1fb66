"""Figure 5: workload characterisation (instruction mix, active warps).

Regenerates 5a (instruction-type mix per benchmark, from the baseline
runs' issue counts) and 5b (average / maximum active-warp population,
from the same baseline runs, next to the values read off the paper's
figure).
"""

from repro.analysis.report import format_table
from repro.harness import figures
from repro.workloads.characterization import count_low_occupancy
from repro.workloads.specs import INTEGER_ONLY_BENCHMARKS

from conftest import print_figure


def test_fig05a_instruction_mix(benchmark, runner):
    rows = benchmark.pedantic(figures.fig5a_rows, args=(runner,),
                              rounds=1, iterations=1)
    text = format_table(figures.FIG5A_HEADERS, rows,
                        title="Figure 5a: instruction mix")
    print_figure("FIG 5a", text)

    by_name = {r[0]: r for r in rows}
    assert len(rows) == 18
    # Integer-only benchmarks show zero FP, everything else has a mix.
    for name in INTEGER_ONLY_BENCHMARKS:
        assert by_name[name][2] == 0.0
    mixed = [r for r in rows if r[0] not in INTEGER_ONLY_BENCHMARKS]
    assert all(r[2] > 0.05 for r in mixed)
    # Fractions sum to one per benchmark.
    for row in rows:
        assert abs(sum(row[1:5]) - 1.0) < 1e-9


def test_fig05b_active_warps(benchmark, runner):
    rows = benchmark.pedantic(figures.fig5b_rows, args=(runner,),
                              rounds=1, iterations=1)
    text = format_table(figures.FIG5B_HEADERS, rows,
                        title="Figure 5b: active warp population "
                              "(sorted by measured average)")
    low = count_low_occupancy([{"avg_active_warps": r[1]} for r in rows])
    print_figure("FIG 5b", text + f"\n\nbenchmarks under 10 average "
                 f"active warps: {low} (paper: 5 of 18)")

    assert len(rows) == 18
    for row in rows:
        assert 0.0 < row[1] <= 48.0
        assert row[1] <= row[2]  # avg <= max
    # A meaningful spread between occupancy-rich and occupancy-poor
    # benchmarks must exist (the paper's low-occupancy group).
    assert low >= 3
