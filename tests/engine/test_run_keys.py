"""Run identity: golden cache keys and the scale-coercion regression.

The golden file pins every key a warm paper-grid cache is addressed by
(see ``tests/engine/run_keys.py``).  Memoising identity must change
none of them, or caches written before the change stop hitting.
"""

from __future__ import annotations

import pytest

from repro.engine.jobs import SimJob, trace_cache_key
from repro.service.core import JobRequest

from tests.engine.run_keys import compute_run_keys, load_run_keys


def test_golden_run_keys_unchanged():
    golden = load_run_keys()
    current = compute_run_keys()
    assert current.keys() == golden.keys()
    drifted = sorted(name for name in golden if current[name] != golden[name])
    assert not drifted, f"run keys drifted: {drifted[:5]}"


def test_golden_covers_the_paper_grid():
    golden = load_run_keys()
    kinds = [name.split("/", 1)[0] for name in golden]
    assert kinds.count("result") == 18 * 6 * 2
    assert kinds.count("trace") == 18
    assert kinds.count("manifest") == 6


@pytest.mark.parametrize("scale", [1, 2, 0.5])
def test_int_and_float_scale_are_one_run(scale):
    """``scale=1`` and ``scale=1.0`` compare equal, so they must share
    the dedupe ticket *and* the cache entries behind it."""
    as_float = float(scale)
    assert SimJob("bfs", "warped_gates", scale=scale).cache_key() == \
        SimJob("bfs", "warped_gates", scale=as_float).cache_key()
    assert trace_cache_key("bfs", 1, scale) == \
        trace_cache_key("bfs", 1, as_float)
    request = JobRequest("bfs", "warped_gates", scale=scale)
    assert request.key(True) == \
        JobRequest("bfs", "warped_gates", scale=as_float).key(True)
    assert request.to_sim_job(True).cache_key() == \
        SimJob("bfs", "warped_gates", scale=as_float).cache_key()


def test_job_identity_is_derived_once():
    job = SimJob("bfs", "warped_gates", seed=1)
    assert job.cache_key() is job.cache_key()
    assert job.manifest_hash is job.manifest_hash
    assert job.spec is job.spec
