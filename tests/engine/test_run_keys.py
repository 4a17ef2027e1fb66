"""Run identity: golden run keys, canonical hashing and scale coercion.

The golden file pins every key a warm paper-grid cache is addressed by
(see ``tests/engine/run_keys.py``).  Memoising identity must change
none of them, or caches written before the change stop hitting.  The
properties check that a run key follows canonical values only: equal
inputs share a key whatever their representation (enum, name or spec;
``1`` or ``1.0``; dict order), distinct inputs never do, and the key
does not depend on the process that computed it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.jobs as jobs
from repro.core.spec import technique_spec
from repro.core.techniques import Technique
from repro.engine.jobs import JobRequest, trace_cache_key
from repro.power.params import GatingParams
from repro.sim.config import MemoryConfig, SMConfig
from repro.workloads.specs import get_profile

from tests.engine.run_keys import compute_run_keys, load_run_keys

SRC = Path(__file__).resolve().parents[2] / "src"


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
    assert len(kinds) == 18 * 6 * 2 + 18


@pytest.mark.parametrize("scale", [1, 2, 0.5])
def test_int_and_float_scale_are_one_run(scale):
    """``scale=1`` and ``scale=1.0`` compare equal, so they must share
    the dedupe ticket *and* the cache entries behind it."""
    as_float = float(scale)
    request = JobRequest("bfs", "warped_gates", scale=scale)
    assert request.key(True) == \
        JobRequest("bfs", "warped_gates", scale=as_float).key(True)
    assert request.key(False) == \
        JobRequest("bfs", "warped_gates", scale=as_float).key(False)
    assert trace_cache_key("bfs", 1, scale) == \
        trace_cache_key("bfs", 1, as_float)


def test_job_identity_is_derived_once():
    job = JobRequest("bfs", "warped_gates", seed=1)
    assert job.key(True) is job.key(True)
    assert job.spec is job.spec
    resolved = job.resolve(True)
    assert resolved.fast_forward is True
    assert resolved.spec is job.spec
    assert resolved.key(True) is job.key(True)
    assert resolved.resolve(False) is resolved


def test_key_names_the_run():
    key = JobRequest("bfs", "warped_gates", seed=3).key(True)
    prefix, digest = key.rsplit("-", 1)
    assert prefix == "bfs-warped_gates-s3"
    int(digest, 16)


def test_unknown_benchmark_is_rejected_when_built():
    """A run key needs the benchmark's profile, so a typo fails early."""
    with pytest.raises(ValueError, match="did you mean 'bfs'"):
        JobRequest("bsf", "warped_gates")


def test_permuted_mix_keeps_the_key(monkeypatch):
    """Equal workload specs hash equal whatever their dict order."""
    request = JobRequest("bfs", "warped_gates")
    before = (request.key(True), trace_cache_key("bfs", 0, 1.0))
    profile = get_profile("bfs")
    permuted = replace(
        profile.spec, mix=dict(reversed(profile.spec.mix.items())),
        latency_by_class=dict(
            reversed(profile.spec.latency_by_class.items())))
    assert permuted == profile.spec
    assert list(permuted.mix) != list(profile.spec.mix)
    monkeypatch.setattr(jobs, "get_profile",
                        lambda name: replace(profile, spec=permuted))
    after = (JobRequest("bfs", "warped_gates").key(True),
             trace_cache_key("bfs", 0, 1.0))
    assert after == before


# -- the key property ------------------------------------------------------

TECHNIQUE_NAMES = ("baseline", "conv_pg", "warped_gates")


def _representations(name):
    """Equal techniques in every form :func:`as_spec` resolves."""
    return (name, Technique(name), technique_spec(name),
            replace(technique_spec(name)))


def _sm_config(issue_width, dram_latency):
    return SMConfig(issue_width=issue_width,
                    memory=MemoryConfig(dram_latency=dram_latency))


@st.composite
def inputs(draw):
    """The canonical inputs of one run."""
    return dict(
        benchmark=draw(st.sampled_from(("bfs", "hotspot"))),
        technique=draw(st.sampled_from(TECHNIQUE_NAMES)),
        bet=draw(st.sampled_from((14, 19))),
        issue_width=draw(st.sampled_from((1, 2))),
        dram_latency=draw(st.sampled_from((300, 400))),
        seed=draw(st.integers(min_value=0, max_value=2)),
        scale=draw(st.sampled_from((0.5, 1.0, 2.0))),
        fast_forward=draw(st.booleans()))


@st.composite
def request_for(draw, canonical):
    """A request with these canonical inputs, in a random representation."""
    technique = draw(st.sampled_from(
        _representations(canonical["technique"])))
    if canonical["bet"] != 14:
        technique = replace(technique_spec(canonical["technique"]),
                            gating=GatingParams(bet=canonical["bet"]))
    scale = canonical["scale"]
    if scale.is_integer() and draw(st.booleans()):
        scale = int(scale)
    return JobRequest(
        canonical["benchmark"], technique,
        sm_config=_sm_config(canonical["issue_width"],
                             canonical["dram_latency"]),
        seed=canonical["seed"], scale=scale,
        fast_forward=canonical["fast_forward"])


@st.composite
def input_pairs(draw):
    """Two runs' inputs: equal, one field apart, or drawn apart."""
    a = draw(inputs())
    kind = draw(st.sampled_from(("equal", "one_field", "independent")))
    if kind == "equal":
        b = dict(a)
    elif kind == "one_field":
        b = dict(draw(inputs()))
        field = draw(st.sampled_from(sorted(a)))
        b = {**a, field: b[field]}
    else:
        b = draw(inputs())
    return a, b


@given(data=st.data(), pair=input_pairs())
@settings(max_examples=150, deadline=None)
def test_keys_equal_exactly_when_canonical_inputs_are(data, pair):
    a, b = pair
    first = data.draw(request_for(a))
    second = data.draw(request_for(b))
    same = first.key(first.fast_forward) == second.key(second.fast_forward)
    assert same == (a == b)


def test_keys_are_stable_across_processes():
    """A run key is a pure function of values, not of hash seeds."""
    script = ("from repro.engine.jobs import JobRequest, trace_cache_key;"
              "print(JobRequest('bfs', 'warped_gates', seed=2, scale=0.5)"
              ".key(True), trace_cache_key('bfs', 2, 0.5))")
    expected = " ".join((
        JobRequest("bfs", "warped_gates", seed=2, scale=0.5).key(True),
        trace_cache_key("bfs", 2, 0.5)))
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == expected.split()
