"""Full-scale digests of the fast-forward engine against the references.

``perfbench/references/grid.json`` holds the serial oracle's digest of
every benchmark-grid cell: scale 1.0, four trace seeds, single-SM and
15-SM ``gtx480`` launches (``perfbench/refgen.py`` writes it; this test
only reads it).  The golden identity suite pins two benchmarks at scale
0.5; a change to any stage of the hot path shows here, at the scale
the benchmark and ``repro figures`` run, on every benchmark:

* 18 single-SM cells at trace seed 1, each benchmark once, cycling
  through the six grid techniques;
* two ``gtx480`` device cells.

Every cell runs the fast-forward engine (span planner plus dense
kernel), whose digests must equal the serial oracle's.
"""

import json
from pathlib import Path

import pytest

from repro.core.device import device_preset
from repro.core.digest import device_result_digest, result_digest
from repro.core.techniques import run_benchmark
from repro.sim.gpu import GPU
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile

REFERENCES = (Path(__file__).resolve().parents[2] / "perfbench"
              / "references" / "grid.json")
TECHNIQUES = ("baseline", "conv_pg", "gates", "naive_blackout",
              "coord_blackout", "warped_gates")
TRACE_SEED = 1
SINGLE_CELLS = [(name, TECHNIQUES[i % len(TECHNIQUES)])
                for i, name in enumerate(BENCHMARK_NAMES)]
DEVICE_CELLS = [("lbm", "naive_blackout"), ("heartwall", "warped_gates")]


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,technique", SINGLE_CELLS)
def test_single_sm_cell_matches_reference(references, name, technique):
    result = run_benchmark(name, technique, seed=TRACE_SEED, scale=1.0,
                           fast_forward=True)
    assert result_digest(result) == \
        references["single"][f"{TRACE_SEED}/{name}/{technique}"]


@pytest.mark.parametrize("name,technique", DEVICE_CELLS)
def test_device_cell_matches_reference(references, name, technique):
    preset = device_preset("gtx480")
    gpu = GPU(preset.n_sms, technique, sm_config=preset.sm,
              dram_latency=get_profile(name).dram_latency,
              memory_side=preset.memory_side, fast_forward=True)
    result = gpu.run(build_kernel(name, seed=TRACE_SEED, scale=1.0))
    assert device_result_digest(result) == \
        references["device"][f"{TRACE_SEED}/{name}/{technique}"]
