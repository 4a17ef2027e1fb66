"""Configurations the span planner cannot skip: kernel vs serial.

A fast-forward run whose forwarder is unsupported never skips, so the
dense kernel steps every cycle of it.  Three configurations land there:
operand-collector bank arbitration (``rf_banks > 0``), GATES with a
``max_priority_cycles`` bound, and the CCWS decay hook.  Each must
produce the serial oracle's canonical result.
"""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, build_sm
from repro.sim.config import SMConfig
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import canonical_result

SCALE = 0.2

#: name -> (technique config, SM config).  A 512-cycle priority bound
#: never fires on these traces (the forwarder is off all the same); a
#: 16-cycle one forces priority swaps on both benchmarks.
CONFIGS = {
    "rf_banks": (TechniqueConfig(Technique.WARPED_GATES),
                 SMConfig(rf_banks=4)),
    "gates_max_priority_512": (TechniqueConfig(
        Technique.GATES, max_priority_cycles=512), SMConfig()),
    "gates_max_priority_16": (TechniqueConfig(
        Technique.GATES, max_priority_cycles=16), SMConfig()),
    "ccws": (TechniqueConfig(Technique.CCWS_CONV_PG), SMConfig()),
}


def _run(benchmark: str, config: str, fast_forward: bool):
    technique, sm_config = CONFIGS[config]
    sm = build_sm(build_kernel(benchmark, seed=0, scale=SCALE), technique,
                  sm_config=sm_config,
                  dram_latency=get_profile(benchmark).dram_latency,
                  fast_forward=fast_forward)
    return sm, sm.run()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_kernel_steps_unskippable_config_like_serial(bench_name, config):
    _, serial = _run(bench_name, config, fast_forward=False)
    sm, forwarded = _run(bench_name, config, fast_forward=True)
    assert not sm._forwarder.supported
    assert sm._kernel_core.cycles == forwarded.cycles
    assert canonical_result(forwarded) == canonical_result(serial)
