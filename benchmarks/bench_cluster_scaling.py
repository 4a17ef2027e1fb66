"""Cluster-count scaling: Fermi (2 SPs) to Kepler/GCN-style layouts.

Section 5 of the paper motivates Coordinated Blackout with the trend
toward more execution clusters per core: "the more recent Kepler
architecture uses six clusters of INT and FP organised as six SPs;
AMD's GCN architecture currently has four clusters".  This bench runs
the generalised N-cluster Coordinated Blackout across 1/2/4/6-cluster
SMs (issue width scaled with the cluster count so per-cluster pressure
stays comparable) and reports how gating opportunity scales with
granularity.
"""

from repro.analysis.report import format_table
from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ExecUnitKind
from repro.sim.config import SMConfig
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from conftest import print_figure

CLUSTER_COUNTS = (1, 2, 4, 6)
BENCHMARKS = ("hotspot", "srad")


def regenerate(figure_scale):
    scale = min(figure_scale, 0.5)
    rows = []
    for n_clusters in CLUSTER_COUNTS:
        sm_config = SMConfig(n_sp_clusters=n_clusters,
                             issue_width=max(2, n_clusters))
        int_savings, perf = [], []
        for name in BENCHMARKS:
            kernel = build_kernel(name, scale=scale)
            dram = get_profile(name).dram_latency
            base = build_sm(kernel, Technique.BASELINE,
                            sm_config=sm_config, dram_latency=dram).run()
            wg = build_sm(kernel,
                          Technique.COORD_BLACKOUT,
                          sm_config=sm_config, dram_latency=dram).run()
            activity = wg.unit_activity(ExecUnitKind.INT)
            int_savings.append(
                (activity.gated_cycles - activity.gating_events * 14)
                / activity.cycles if activity.cycles else 0.0)
            perf.append(base.cycles / wg.cycles)
        rows.append([n_clusters, max(2, n_clusters),
                     sum(int_savings) / len(int_savings),
                     sum(perf) / len(perf)])
    return rows


def test_cluster_scaling(benchmark, figure_scale):
    rows = benchmark.pedantic(regenerate, args=(figure_scale,),
                              rounds=1, iterations=1)
    text = format_table(
        ("sp_clusters", "issue_width", "int_savings", "mean_perf"),
        rows, title="Coordinated Blackout vs SP cluster count")
    print_figure("CLUSTER SCALING", text + "\n\nthe paper's motivation: "
                 "finer cluster granularity gives the coordinated "
                 "policy more independent gating domains to park")

    by_clusters = {r[0]: r for r in rows}
    # The coordinated policy must function at every cluster count (the
    # generalisation beyond the paper's two-cluster description)...
    for row in rows:
        assert row[3] > 0.8
    # ...and multi-cluster layouts gate at least as profitably as the
    # single-cluster machine, where coordination cannot help at all.
    assert by_clusters[6][2] >= by_clusters[1][2] - 0.02
    assert by_clusters[4][2] >= by_clusters[1][2] - 0.02
