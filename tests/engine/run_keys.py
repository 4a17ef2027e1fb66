"""Golden run keys: the identities persistent caches are addressed by.

A warm ``.repro-cache/`` keeps hitting only while every derived key is
bit-identical: the run key of each grid cell
(:meth:`~repro.engine.jobs.JobRequest.key`, which is also the result
filename, the manifest's ``run_key``, the service job id and the
ledger key) and the trace-cache key of each benchmark.
``tests/engine/golden/run_keys.json`` pins them for the paper grid (the
18 benchmarks under the ungated baseline and the five gating
techniques, seed 1, scale 1.0, fast-forward on and off);
``test_run_keys.py`` recomputes every one of them.

Keys hash canonical JSON (``repro.core.digest``), never a ``repr``.

Regenerate (only when an *intentional* identity change lands, which
invalidates every cache written before it) with::

    PYTHONPATH=src:. python tests/engine/run_keys.py --write
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.engine.jobs import JobRequest, trace_cache_key
from repro.workloads.specs import BENCHMARK_NAMES

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "run_keys.json"

#: The grid ``repro figures`` simulates.
GRID_TECHNIQUES = ("baseline", "conv_pg", "gates", "naive_blackout",
                   "coord_blackout", "warped_gates")
GRID_SEED = 1
GRID_SCALE = 1.0


def compute_run_keys() -> Dict[str, str]:
    """Every pinned key, by ``result/…`` or ``trace/…``."""
    keys: Dict[str, str] = {}
    for benchmark in BENCHMARK_NAMES:
        for technique in GRID_TECHNIQUES:
            job = JobRequest(benchmark, technique, seed=GRID_SEED,
                             scale=GRID_SCALE)
            for fast_forward, mode in ((True, "ff"), (False, "serial")):
                keys[f"result/{benchmark}/{technique}/{mode}"] = \
                    job.key(fast_forward)
        keys[f"trace/{benchmark}"] = trace_cache_key(
            benchmark, GRID_SEED, GRID_SCALE)
    return keys


def load_run_keys() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import sys

    run_keys = compute_run_keys()
    text = json.dumps(run_keys, indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {len(run_keys)} keys to {GOLDEN_PATH}")
    else:
        print(text, end="")
