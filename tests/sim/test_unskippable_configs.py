"""Configurations the span planner cannot skip: kernel vs serial.

A fast-forward run whose forwarder is unsupported never skips, so the
dense kernel steps every cycle of it.  A cycle hook without
``idle_next_event`` (a :class:`~repro.analysis.timeline.PowerTimeline`,
as ``examples/power_timeline.py`` attaches it) lands there.  The run
must produce the serial oracle's canonical result.
"""

import pytest

from repro.analysis.timeline import PowerTimeline
from repro.core.techniques import Technique, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import canonical_result

SCALE = 0.2


def _timeline(sm):
    return PowerTimeline(sm, epoch_cycles=100)


#: name -> (technique, attach(sm) run before the SM runs, or None).
CONFIGS = {
    "power_timeline": (Technique.WARPED_GATES, _timeline),
}


def _run(benchmark: str, config: str, fast_forward: bool):
    technique, attach = CONFIGS[config]
    sm = build_sm(build_kernel(benchmark, seed=0, scale=SCALE), technique,
                  dram_latency=get_profile(benchmark).dram_latency,
                  fast_forward=fast_forward)
    attached = attach(sm) if attach is not None else None
    return sm, sm.run(), attached


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_kernel_steps_unskippable_config_like_serial(bench_name, config):
    _, serial, serial_hook = _run(bench_name, config, fast_forward=False)
    sm, forwarded, hook = _run(bench_name, config, fast_forward=True)
    assert not sm._forwarder.supported
    assert sm._kernel_core.cycles == forwarded.cycles
    assert canonical_result(forwarded) == canonical_result(serial)
    if hook is not None:
        # The hook saw every cycle the oracle showed it, state for state.
        for name in hook.domains():
            assert hook.to_rows(name) == serial_hook.to_rows(name)
