"""Generate the benchmark's reference digests with the serial oracle.

Every op the benchmark times is checked against a digest computed here
by the plain serial ``_step`` loop, never by the fast paths under test:

* single-SM cells: ``run_benchmark(..., fast_forward=False)``;
* device cells: the engine-less ``GPU(..., fast_forward=False)`` path
  on the ``gtx480`` preset.

Usage (from the repository root)::

    python3 perfbench/refgen.py                 # rewrite the table
    python3 perfbench/refgen.py --self-check    # reproduce the goldens

``--self-check`` runs the same two functions on the golden grid
(scale 0.5, seed 0) and compares them with the 20 ``<bench>/<tech>``
and ``device/<bench>/<tech>`` digests in
``tests/sim/golden/identity.json``, which it only reads.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from typing import Dict, List, Tuple

import grid

GOLDEN_PATH = grid.ROOT / "tests" / "sim" / "golden" / "identity.json"
GOLDEN_TECHNIQUES = ("baseline", "gates", "naive_blackout",
                     "coord_blackout", "warped_gates")
GOLDEN_BENCHMARKS = ("hotspot", "bfs")
GOLDEN_SCALE = 0.5

Cell = Tuple[str, str, str, int, float]  # (table, bench, tech, seed, scale)


def single_digest(benchmark: str, technique: str, seed: int,
                  scale: float) -> str:
    """Digest of one single-SM cell run by the serial oracle."""
    from repro.core.digest import result_digest
    from repro.core.techniques import run_benchmark
    return result_digest(run_benchmark(benchmark, technique, seed=seed,
                                       scale=scale, fast_forward=False))


def device_digest(benchmark: str, technique: str, seed: int,
                  scale: float) -> str:
    """Digest of one gtx480 launch run serially, without an engine."""
    from repro.core.device import device_preset
    from repro.core.digest import device_result_digest
    from repro.sim.gpu import GPU
    from repro.workloads.registry import build_kernel
    from repro.workloads.specs import get_profile

    preset = device_preset(grid.DEVICE_PRESET)
    gpu = GPU(preset.n_sms, config=technique, sm_config=preset.sm,
              dram_latency=get_profile(benchmark).dram_latency,
              memory_side=preset.memory_side, fast_forward=False)
    return device_result_digest(
        gpu.run(build_kernel(benchmark, seed=seed, scale=scale)))


def digest_cell(cell: Cell) -> Tuple[Cell, str]:
    grid.import_repro()
    table, benchmark, technique, seed, scale = cell
    fn = single_digest if table == "single" else device_digest
    return cell, fn(benchmark, technique, seed, scale)


def digest_cells(cells: List[Cell], jobs: int) -> Dict[Cell, str]:
    """Digest every cell on a ``jobs``-process spawn pool."""
    if jobs <= 1:
        return dict(digest_cell(cell) for cell in cells)
    context = multiprocessing.get_context("spawn")
    with context.Pool(jobs) as pool:
        return dict(pool.imap_unordered(digest_cell, cells))


def generate(jobs: int) -> Dict[str, Dict[str, str]]:
    """The full reference tables for every seed in ``grid.TRACE_SEEDS``."""
    names = grid.benchmarks()
    cells = [(table, b, t, seed, grid.SCALE)
             for seed in grid.TRACE_SEEDS for table in ("single", "device")
             for b in names for t in grid.TECHNIQUES]
    refs: Dict[str, Dict[str, str]] = {"single": {}, "device": {}}
    for (table, b, t, seed, _), digest in digest_cells(cells, jobs).items():
        refs[table][grid.cell_key(seed, b, t)] = digest
    return {table: dict(sorted(entries.items()))
            for table, entries in refs.items()}


def self_check(jobs: int) -> List[str]:
    """Golden keys this generator fails to reproduce (empty = ok)."""
    goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    cells = [(table, b, t, 0, GOLDEN_SCALE)
             for table in ("single", "device")
             for b in GOLDEN_BENCHMARKS for t in GOLDEN_TECHNIQUES]
    digests = digest_cells(cells, jobs)
    mismatched = []
    for (table, b, t, _, _), digest in sorted(digests.items()):
        key = f"{b}/{t}" if table == "single" else f"device/{b}/{t}"
        if goldens.get(key) != digest:
            mismatched.append(key)
    return mismatched


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--self-check", action="store_true",
                        help="reproduce the golden identity digests")
    args = parser.parse_args(argv)
    grid.import_repro()
    started = time.perf_counter()
    if args.self_check:
        mismatched = self_check(args.jobs)
        if mismatched:
            print(f"self-check FAILED: {', '.join(mismatched)}")
            return 1
        print(f"self-check ok: 20 golden digests reproduced in "
              f"{time.perf_counter() - started:.1f}s")
        return 0
    refs = generate(args.jobs)
    grid.REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    grid.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n",
                                   encoding="utf-8")
    print(f"wrote {sum(len(t) for t in refs.values())} digests for seeds "
          f"{list(grid.TRACE_SEEDS)} to {grid.REFERENCE_PATH} in "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
