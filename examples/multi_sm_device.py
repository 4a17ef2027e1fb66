#!/usr/bin/env python3
"""Whole-device run: 15 SMs, block-level work distribution.

The paper's statistics are per-SM, but the GTX480 has 15 of them.  This
example distributes one benchmark's warps round-robin over a full device
(the way thread blocks spread over SMs), runs every SM under Warped
Gates and under the no-gating baseline, and aggregates device-level
savings and runtime — including the per-SM spread, which shows how work
imbalance affects gating opportunity at the edges of a kernel.

Usage::

    python examples/multi_sm_device.py [benchmark] [--sms 15] [--scale 1.0]
"""

import argparse

from repro.analysis.report import format_fraction, format_table
from repro.core.techniques import Technique
from repro.isa.optypes import ExecUnitKind
from repro.sim.gpu import GPU
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile


def device(technique: Technique, n_sms: int, dram_latency: int) -> GPU:
    return GPU(n_sms, technique, dram_latency=dram_latency)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="srad",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--sms", type=int, default=15,
                        help="number of SMs (GTX480 has 15)")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    kernel = build_kernel(args.benchmark, scale=args.scale)
    profile = get_profile(args.benchmark)
    base = device(Technique.BASELINE, args.sms,
                  profile.dram_latency).run(kernel)
    wg = device(Technique.WARPED_GATES, args.sms,
                profile.dram_latency).run(kernel)

    bet = 14
    activity = wg.unit_activity(ExecUnitKind.INT)
    savings = (activity.gated_cycles - activity.gating_events * bet) \
        / activity.cycles if activity.cycles else 0.0

    print(f"benchmark: {args.benchmark}  warps: {kernel.n_warps}  "
          f"SMs used: {len(wg.sm_results)}\n")
    rows = [
        ("device cycles (baseline)", base.cycles),
        ("device cycles (warped gates)", wg.cycles),
        ("normalised performance", round(base.cycles / wg.cycles, 3)),
        ("device INT static savings", format_fraction(savings)),
        ("instructions retired", wg.total_instructions),
    ]
    print(format_table(("metric", "value"), rows, title="Device summary"))

    print()
    per_sm = [[r.kernel_name, r.cycles,
               r.stats.instructions_retired,
               round(r.stats.avg_active_warps, 1)]
              for r in wg.sm_results]
    print(format_table(("sm", "cycles", "instructions", "avg_active"),
                       per_sm, title="Per-SM breakdown (warped gates)"))


if __name__ == "__main__":
    main()
