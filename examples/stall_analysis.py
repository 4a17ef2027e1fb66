#!/usr/bin/env python3
"""Issue-stall breakdown: where do issue opportunities go?

Runs one benchmark under several techniques and prints the stall-event
profile (per 1000 cycles): nothing-ready, structural port conflicts,
blackout denials, wakeups in progress, MSHR back-pressure.  The
interesting contrast: conventional gating shows `unit_waking` events
(instructions waiting out the 3-cycle wakeup), Blackout converts them
into `unit_gated` denials (instructions parked until break-even), and
Warped Gates' adaptive window shrinks both.

Usage::

    python examples/stall_analysis.py [benchmark] [--scale 1.0]
"""

import argparse

from repro.analysis.report import format_table
from repro.analysis.stalls import STALL_HEADERS, stall_rows
from repro.core.techniques import Technique, run_benchmark
from repro.workloads.specs import BENCHMARK_NAMES

TECHNIQUES = (Technique.BASELINE, Technique.CONV_PG,
              Technique.NAIVE_BLACKOUT, Technique.WARPED_GATES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="cutcp",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    runs = {technique.value: run_benchmark(
                args.benchmark, technique,
                scale=args.scale)
            for technique in TECHNIQUES}
    print(format_table(
        STALL_HEADERS, stall_rows(runs),
        title=f"Stall events per kilocycle: {args.benchmark}"))
    print("\nReading guide: baseline has no gating stalls; conv_pg "
          "adds unit_waking; blackout variants add unit_gated "
          "denials; warped_gates' wider idle-detect reduces both.")


if __name__ == "__main__":
    main()
