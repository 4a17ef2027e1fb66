#!/usr/bin/env python3
"""Adaptive idle-detect dynamics (paper section 5.1).

Runs one benchmark under the full Warped Gates configuration and dumps
the epoch-by-epoch trajectory of the adaptive controller for each unit
type: critical wakeups observed in the epoch and the resulting
idle-detect window.  Benchmarks that pressure their units (many
critical wakeups) drive the window up toward the 10-cycle bound;
quiet phases decay it back toward 5.

Usage::

    python examples/adaptive_dynamics.py [benchmark] [--scale 1.0]
"""

import argparse

from repro.analysis.report import format_table
from repro.core.adaptive import AdaptiveIdleDetect
from repro.core.techniques import Technique, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="cutcp",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    kernel = build_kernel(args.benchmark, scale=args.scale)
    profile = get_profile(args.benchmark)
    sm = build_sm(kernel, Technique.WARPED_GATES,
                  dram_latency=profile.dram_latency)
    result = sm.run()

    controllers = [h for h in sm.hooks if isinstance(h, AdaptiveIdleDetect)]
    labels = ["INT", "FP"][:len(controllers)]
    print(f"benchmark: {args.benchmark}  cycles: {result.cycles}\n")
    for label, controller in zip(labels, controllers):
        rows = [[epoch, critical, idle_detect]
                for epoch, critical, idle_detect in controller.history]
        if not rows:
            print(f"{label}: run shorter than one epoch "
                  f"({controller.config.epoch_cycles} cycles); no "
                  f"adaptation happened.\n")
            continue
        print(format_table(
            ("epoch", "critical_wakeups", "idle_detect_after"),
            rows, title=f"{label} adaptive idle-detect trajectory"))
        print()
    print("final idle-detect per domain:", result.idle_detect_final)


if __name__ == "__main__":
    main()
