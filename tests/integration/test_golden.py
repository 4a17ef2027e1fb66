"""Golden-value regression tests.

These pin the exact outcomes of a few (benchmark, technique) runs at a
fixed seed and scale.  Unlike the invariant and shape tests, a failure
here does not necessarily mean a bug — it means simulator *semantics*
changed (issue order, latency accounting, gating timing, trace
generation).  If the change is intentional, re-record the constants
(the commented command below), regenerate the full-scale artifact
(`python -m repro figures`, written under `results/`) and update
EXPERIMENTS.md, which is calibrated against the same semantics.

Trace generation uses numpy's PCG64 generator, whose stream is stable
across numpy versions (NEP 19), so these values are portable.

Re-record with::

    python - <<'PY'
    from repro.core.techniques import Technique, run_benchmark
    for name in ("hotspot", "bfs", "nw"):
        for tech in (Technique.BASELINE, Technique.CONV_PG,
                     Technique.WARPED_GATES):
            r = run_benchmark(name, tech, scale=0.25)
            gated = sum(s.gated_cycles for s in r.domain_stats.values())
            print(name, tech.value, r.cycles,
                  r.stats.instructions_retired, gated)
    PY
"""

import pytest

from repro.core.techniques import Technique, run_benchmark

#: (benchmark, technique) -> (cycles, instructions retired, total gated
#: cycles across domains), at seed 0 / scale 0.25.
GOLDEN = {
    ("hotspot", Technique.BASELINE): (1003, 384, 0),
    ("hotspot", Technique.CONV_PG): (997, 384, 2852),
    ("hotspot", Technique.WARPED_GATES): (894, 384, 2572),
    ("bfs", Technique.BASELINE): (2391, 336, 0),
    ("bfs", Technique.CONV_PG): (2439, 336, 8691),
    ("bfs", Technique.WARPED_GATES): (2623, 336, 9485),
    ("nw", Technique.BASELINE): (776, 48, 0),
    ("nw", Technique.CONV_PG): (699, 48, 2630),
    ("nw", Technique.WARPED_GATES): (682, 48, 2562),
}


@pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
def test_golden_run(key):
    name, technique = key
    expected_cycles, expected_insts, expected_gated = GOLDEN[key]
    result = run_benchmark(name, technique, scale=0.25)
    gated = sum(s.gated_cycles for s in result.domain_stats.values())
    assert (result.cycles, result.stats.instructions_retired, gated) == \
        (expected_cycles, expected_insts, expected_gated), (
            "simulator semantics changed; if intentional, re-record the "
            "golden constants and regenerate EXPERIMENTS.md")
