"""Canonical serialization + digests pinning simulator bit-identity.

The busy-cycle hot-loop optimization (incremental ready-set scheduling,
span-based stats) must be *pinned bit-identical* to the pre-optimization
cycle loop.  This module turns a :class:`~repro.sim.sm.SimResult` (and
an instrumented run's ordered event stream) into a canonical JSON form
and a sha256 digest over it.

The reference digests in ``tests/sim/golden/identity.json`` were
generated from the pre-optimization loop; ``test_golden_identity.py``
recomputes them on every run, so any observable drift in the scheduler,
scoreboard, stats, or gating paths fails loudly with the technique and
benchmark named.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src:. python tests/sim/identity.py --write
"""

from __future__ import annotations

import json
from pathlib import Path

# Canonicalisation and digests now live in the product tree (the
# simulation service serves digests over HTTP); re-exported here so the
# golden suite and its historical import path keep working unchanged.
from repro.core.digest import (  # noqa: F401 - re-exported test API
    canonical_device_result,
    canonical_events,
    canonical_result,
    device_result_digest,
    event_stream_digest,
    result_digest,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "identity.json"

#: The grid the golden suite pins: every paper technique plus the
#: ungated baseline, over one balanced and one memory-bound benchmark.
GOLDEN_TECHNIQUES = ("baseline", "gates", "naive_blackout",
                     "coord_blackout", "warped_gates")
GOLDEN_BENCHMARKS = ("hotspot", "bfs")
GOLDEN_SCALE = 0.5

#: Device preset pinned at chip scale (the paper's 15-SM GTX480).
GOLDEN_DEVICE_PRESET = "gtx480"


# ----------------------------------------------------------------------
# golden grid runners (shared by the test and the regeneration entry)
# ----------------------------------------------------------------------

def run_golden_cell(benchmark: str, technique_value: str,
                    fast_forward: bool = False,
                    bus: "object | None" = None):
    """One single-SM golden run (serial by default).

    ``fast_forward=True`` runs the same cell through the stepping
    engine: quiet spans skipped, every other cycle stepped by the dense
    kernel (:mod:`repro.sim.kernel`).  An enabled ``bus`` records the
    events and changes neither path.  Every flavour's digest must
    equal the serial one — those equalities are what pin the engine
    bit-identical to the serial oracle.
    """
    from repro.core.techniques import Technique, run_benchmark
    return run_benchmark(benchmark, Technique(technique_value),
                         seed=0, scale=GOLDEN_SCALE,
                         fast_forward=fast_forward, bus=bus)


def run_kernel_cell(benchmark: str, technique_value: str):
    """One golden cell with the dense kernel stepping every cycle.

    The span planner is switched off for the run (its capability check
    reports unsupported), so no cycle is skipped.
    """
    from unittest import mock

    from repro.sim.fastforward import SpanFastForwarder
    with mock.patch.object(SpanFastForwarder, "_check_supported",
                           return_value=False):
        return run_golden_cell(benchmark, technique_value,
                               fast_forward=True)


def run_golden_device(benchmark: str, technique_value: str,
                      fast_forward: bool = False):
    """One full-chip golden run on the pinned device preset.

    Serial and fast-forward flavours must digest identically; the
    committed reference is computed from the serial core.
    """
    from repro.core.device import device_preset
    from repro.core.techniques import Technique
    from repro.sim.gpu import GPU
    from repro.workloads.registry import build_kernel
    from repro.workloads.specs import get_profile

    kernel = build_kernel(benchmark, seed=0, scale=GOLDEN_SCALE)
    preset = device_preset(GOLDEN_DEVICE_PRESET)
    gpu = GPU(preset.n_sms,
              config=Technique(technique_value),
              sm_config=preset.sm,
              dram_latency=get_profile(benchmark).dram_latency,
              memory_side=preset.memory_side,
              fast_forward=fast_forward)
    return gpu.run(kernel)


def run_instrumented_golden(benchmark: str = "hotspot",
                            technique_value: str = "warped_gates",
                            **kwargs):
    """One bus-enabled golden run; returns (result, events).

    ``kwargs`` reach :func:`~repro.core.techniques.build_sm`, so
    ``fast_forward=True`` selects the stepping engine (span skips
    included: a skipped span publishes its no-ready-warp stalls); both
    paths must publish the serial event stream.
    """
    from repro.core.techniques import Technique, build_sm
    from repro.obs.bus import EventBus
    from repro.workloads.registry import build_kernel
    from repro.workloads.specs import get_profile

    kernel = build_kernel(benchmark, seed=0, scale=GOLDEN_SCALE)
    bus = EventBus(enabled=True)
    sm = build_sm(kernel, Technique(technique_value),
                  dram_latency=get_profile(benchmark).dram_latency, bus=bus,
                  **kwargs)
    events = []
    bus.subscribe(events.append)
    return sm.run(), events


def compute_goldens() -> dict:
    """Digest every golden cell plus the instrumented event stream.

    ``spec/<technique>`` entries pin each golden technique's canonical
    :meth:`~repro.core.spec.TechniqueSpec.spec_hash` — the identity
    that keys the persistent run cache and the memoising runner — so a
    serialization or registration drift fails alongside any simulated
    drift it would cause.
    """
    from repro.core.spec import technique_spec

    digests = {}
    for benchmark in GOLDEN_BENCHMARKS:
        for technique in GOLDEN_TECHNIQUES:
            result = run_golden_cell(benchmark, technique)
            digests[f"{benchmark}/{technique}"] = result_digest(result)
            device = run_golden_device(benchmark, technique)
            digests[f"device/{benchmark}/{technique}"] = \
                device_result_digest(device)
            # The stepping engine (dense kernel plus span skip) must
            # reproduce the serial digest exactly; the entry is recorded
            # under its own key so an engine-only drift is named by the
            # failing key.
            forwarded = run_golden_cell(benchmark, technique,
                                        fast_forward=True)
            digests[f"kernel/{benchmark}/{technique}"] = \
                result_digest(forwarded)
    result, events = run_instrumented_golden()
    digests["events/hotspot/warped_gates"] = event_stream_digest(events)
    digests["events/hotspot/warped_gates/result"] = result_digest(result)
    for technique in GOLDEN_TECHNIQUES:
        digests[f"spec/{technique}"] = technique_spec(technique).spec_hash()
    return digests


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import sys

    digests = compute_goldens()
    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    else:
        print(json.dumps(digests, indent=2, sort_keys=True))
