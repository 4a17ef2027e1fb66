#!/usr/bin/env python3
"""Phase analysis: when do the execution units actually sleep?

Attaches a :class:`PowerTimeline` to a Warped Gates run and prints the
per-epoch gated fraction of each CUDA-core cluster as a sparkline-style
strip, plus the epoch table for one domain.  Memory-bound benchmarks
show clear sleep waves; compute-bound ones show the FP clusters dozing
while INT stays hot (or vice versa).

Usage::

    python examples/power_timeline.py [benchmark] [--epoch 500]
"""

import argparse

from repro.analysis.report import format_table
from repro.analysis.timeline import TIMELINE_HEADERS, PowerTimeline
from repro.core.techniques import Technique, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile

#: Ten-level shading for the gated-fraction strips.
SHADES = " .:-=+*#%@"


def shade(fraction: float) -> str:
    index = min(int(fraction * len(SHADES)), len(SHADES) - 1)
    return SHADES[index]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="mri",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--epoch", type=int, default=500)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    kernel = build_kernel(args.benchmark, scale=args.scale)
    sm = build_sm(kernel, Technique.WARPED_GATES,
                  dram_latency=get_profile(args.benchmark).dram_latency)
    timeline = PowerTimeline(sm, epoch_cycles=args.epoch,
                             names=("INT0", "INT1", "FP0", "FP1"))
    result = sm.run()

    print(f"benchmark: {args.benchmark}  cycles: {result.cycles}  "
          f"epoch: {args.epoch} cycles\n")
    print("gated fraction per epoch (' '=always on, '@'=fully gated):")
    for name in timeline.domains():
        strip = "".join(shade(f)
                        for f in timeline.gated_fraction_series(name))
        print(f"  {name:5s} |{strip}|")
    print()
    print(format_table(TIMELINE_HEADERS, timeline.to_rows("FP0"),
                       title="FP0 epoch detail"))


if __name__ == "__main__":
    main()
