"""The benchmark grid: cells, op streams and reference digests.

The grid is the one ``repro figures`` simulates: every benchmark of the
suite under the ungated baseline and the five gating techniques, at
scale 1.0.  A workload seed picks the trace seed of a run (from
:data:`TRACE_SEEDS`, for which reference digests are committed) and
shuffles the cell order; every run covers whole passes, so every run
has the same op mix.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "references" / "grid.json"

TECHNIQUES = ("baseline", "conv_pg", "gates", "naive_blackout",
              "coord_blackout", "warped_gates")
SCALE = 1.0
DEVICE_PRESET = "gtx480"

#: Trace seeds with committed reference digests.  Workload seed ``w``
#: runs trace seed ``TRACE_SEEDS[w % 4]``.
TRACE_SEEDS = (1, 2, 3, 4)

#: The serve-cold warm-up cell.  Its trace seed lies outside
#: :data:`TRACE_SEEDS`, so it shares neither a dedupe key, a result
#: cache entry nor a trace cache entry with any measured op.
WARMUP_CELL = ("nw", "baseline", 1000)


def import_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path`` and import ``repro``.

    Exits with status 2 when the program under test is not there (a
    directory holding only the benchmark cannot produce a result).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program under test at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def benchmarks() -> Tuple[str, ...]:
    """The benchmark suite, in registry order."""
    from repro.workloads.specs import BENCHMARK_NAMES
    return tuple(BENCHMARK_NAMES)


@dataclass(frozen=True)
class Op:
    """One grid cell as it appears in an op stream."""

    index: int
    benchmark: str
    technique: str
    trace_seed: int

    @property
    def key(self) -> str:
        """Reference-table key: ``<trace seed>/<benchmark>/<technique>``."""
        return cell_key(self.trace_seed, self.benchmark, self.technique)


def cell_key(trace_seed: int, benchmark: str, technique: str) -> str:
    return f"{trace_seed}/{benchmark}/{technique}"


def trace_seed_for(workload_seed: int) -> int:
    """The trace seed a workload seed runs."""
    return TRACE_SEEDS[workload_seed % len(TRACE_SEEDS)]


def op_stream(workload_seed: int,
              names: Sequence[str]) -> List[Op]:
    """One pass over the grid, shuffled by the workload seed."""
    trace_seed = trace_seed_for(workload_seed)
    cells = [(b, t) for b in names for t in TECHNIQUES]
    random.Random(workload_seed).shuffle(cells)
    return [Op(i, b, t, trace_seed) for i, (b, t) in enumerate(cells)]


def load_references(path: Path = REFERENCE_PATH) -> Dict[str, Dict[str, str]]:
    """The committed reference tables: ``{"single": {...}, "device": {...}}``."""
    return json.loads(path.read_text(encoding="utf-8"))


def failed_ops(ops: Iterable[Op], digests: Dict[int, str],
               table: Dict[str, str]) -> List[int]:
    """Indices of the ops whose digest differs from the reference.

    An op with no digest (it errored) or no reference entry fails too.
    """
    return [op.index for op in ops
            if digests.get(op.index) is None
            or table.get(op.key) != digests[op.index]]
