"""Granularity ablation: per-unit gating vs SM-level gating.

The paper's related-work positioning (section 8): prior GPU power gating
(Wang et al. [22]) works at SM granularity, "which works well when an
entire SM is idle.  But this work shows that there are plenty of
opportunities to power gate execution units within an SM, even when an
SM is not idle."  This bench quantifies that claim on our substrate by
applying the conventional gating state machine analytically to (a) the
SM-wide "all pipelines idle" histogram and (b) the per-unit INT
histograms of the same baseline runs.
"""

from repro.analysis.granularity import granularity_comparison
from repro.analysis.report import format_table
from repro.isa.optypes import ExecUnitKind
from repro.sim.sm import StreamingMultiprocessor

from conftest import print_figure


def regenerate(runner):
    rows = []
    for name in runner.settings.benchmarks:
        result = runner.baseline(name)
        sm_wide = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER].histogram
        unit = result.idle_histogram(ExecUnitKind.INT)
        comparison = granularity_comparison(
            sm_wide, unit, total_cycles=result.cycles,
            n_unit_domains=len(result.pipeline_names(ExecUnitKind.INT)),
            params=runner.settings.gating)
        rows.append([name,
                     comparison["sm_level_idle_fraction"],
                     comparison["sm_level_savings"],
                     comparison["unit_level_idle_fraction"],
                     comparison["unit_level_savings"]])
    return rows


def test_granularity_comparison(benchmark, runner):
    rows = benchmark.pedantic(regenerate, args=(runner,),
                              rounds=1, iterations=1)
    text = format_table(
        ("benchmark", "sm_idle_frac", "sm_savings",
         "unit_idle_frac", "unit_savings"), rows,
        title="Gating granularity: whole-SM vs per-unit (INT), "
              "analytic conventional gating")
    print_figure("GRANULARITY", text + "\n\npaper section 8: SM-level "
                 "gating only pays when an entire SM idles; per-unit "
                 "gating finds opportunity inside busy SMs")

    # Per-unit gating must find at least as much opportunity as
    # SM-level gating on every benchmark, and strictly more in total.
    total_sm = sum(r[2] for r in rows)
    total_unit = sum(r[4] for r in rows)
    assert total_unit > total_sm
    for row in rows:
        assert row[3] >= row[1] - 1e-9  # unit idleness >= SM-wide


def regenerate_with_gaps(figure_scale):
    """The complementary regime: inter-kernel gaps.

    SM-granular gating (Wang et al.) earns its keep *between* kernels,
    when the whole SM drains.  Run the same benchmark as a sequence of
    three kernel launches with host-side gaps and show the SM-level
    opportunity catching up.
    """
    from repro.core.techniques import Technique, build_sm
    from repro.workloads.registry import build_kernel
    from repro.workloads.specs import get_profile

    scale = min(figure_scale, 0.5) / 3
    rows = []
    for gap in (0, 200, 1000):
        kernels = [build_kernel("hotspot", seed=s, scale=scale)
                   for s in range(3)]
        sm = build_sm(kernels, Technique.BASELINE,
                      dram_latency=get_profile("hotspot").dram_latency,
                      kernel_gap_cycles=gap)
        result = sm.run()
        sm_wide = result.stats.idle_trackers[
            StreamingMultiprocessor.SM_WIDE_TRACKER].histogram
        unit = result.idle_histogram(ExecUnitKind.INT)
        comparison = granularity_comparison(
            sm_wide, unit, total_cycles=result.cycles,
            n_unit_domains=len(result.pipeline_names(ExecUnitKind.INT)))
        rows.append([gap, result.cycles,
                     comparison["sm_level_savings"],
                     comparison["unit_level_savings"]])
    return rows


def test_granularity_with_kernel_gaps(benchmark, figure_scale):
    rows = benchmark.pedantic(regenerate_with_gaps,
                              args=(figure_scale,),
                              rounds=1, iterations=1)
    text = format_table(
        ("gap_cycles", "total_cycles", "sm_savings", "unit_savings"),
        rows, title="Granularity vs inter-kernel gaps "
                    "(hotspot x3 launches)")
    print_figure("GRANULARITY/GAPS", text + "\n\nlonger host-side gaps "
                 "between kernels grow the whole-SM opportunity — the "
                 "regime where SM-granular gating (Wang et al.) works; "
                 "per-unit gating covers both regimes")

    by_gap = {r[0]: r for r in rows}
    # SM-level savings grow monotonically with the gap length...
    assert by_gap[200][2] > by_gap[0][2]
    assert by_gap[1000][2] > by_gap[200][2]
    # ...and per-unit gating never does worse than SM-level gating.
    for row in rows:
        assert row[3] >= row[2] - 1e-9
