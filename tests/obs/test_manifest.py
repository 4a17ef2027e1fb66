"""Tests for run provenance: config hashing and manifests."""

import dataclasses

from repro.core.adaptive import AdaptiveConfig
from repro.obs.manifest import RunManifest, config_hash
from repro.power.params import GatingParams
from repro.sim.config import SMConfig


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(GatingParams(), SMConfig()) == \
            config_hash(GatingParams(), SMConfig())

    def test_sensitive_to_any_field(self):
        base = config_hash(GatingParams())
        assert config_hash(GatingParams(idle_detect=9)) != base
        assert config_hash(GatingParams(bet=20)) != base

    def test_sensitive_to_argument_order(self):
        a, b = GatingParams(), AdaptiveConfig()
        assert config_hash(a, b) != config_hash(b, a)

    def test_short_hex(self):
        digest = config_hash(SMConfig())
        assert len(digest) == 12
        int(digest, 16)

    def test_memoised_repr_matches_fresh_and_stays_invisible(self):
        config = SMConfig()
        before = (repr(config), hash(config), dataclasses.asdict(config))
        first = config_hash(config, 1, 1.0)
        assert config_hash(config, 1, 1.0) == first
        assert config_hash(SMConfig(), 1, 1.0) == first
        assert config == SMConfig()
        assert (repr(config), hash(config),
                dataclasses.asdict(config)) == before
        narrower = dataclasses.replace(config, issue_width=1)
        assert narrower != config
        assert config_hash(narrower, 1, 1.0) != first

    def test_equal_values_of_other_types_never_alias(self):
        ints, floats = GatingParams(bet=14), GatingParams(bet=14.0)
        assert ints == floats
        assert config_hash(ints) == config_hash(ints)
        assert config_hash(ints) != config_hash(floats)
        assert config_hash(1) != config_hash(1.0) != config_hash(True)


def _manifest(**overrides):
    base = dict(benchmark="hotspot", technique="warped_gates", seed=0,
                scale=0.5, run_key="hotspot-warped_gates-s0-abc123def456",
                cycles=10_000,
                instructions=4_000,
                wall_seconds={"build_trace": 0.5, "simulate": 2.0})
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_derived_throughput(self):
        manifest = _manifest()
        assert manifest.total_seconds == 2.5
        assert manifest.cycles_per_sec == 5_000.0

    def test_zero_simulate_time_is_safe(self):
        manifest = _manifest(wall_seconds={})
        assert manifest.cycles_per_sec == 0.0
        assert manifest.total_seconds == 0.0

    def test_to_dict_includes_derived_fields(self):
        record = _manifest().to_dict()
        assert record["cycles_per_sec"] == 5_000.0
        assert record["total_seconds"] == 2.5
        assert record["benchmark"] == "hotspot"

    def test_defaults_to_ok_status(self):
        manifest = _manifest()
        assert manifest.ok
        record = manifest.to_dict()
        assert record["status"] == "ok"
        assert record["error"] == ""
        assert record["attempts"] == 1

    def test_failure_record(self):
        manifest = _manifest(status="timed_out",
                             error="timed out after 5s", attempts=3,
                             cycles=0, instructions=0)
        assert not manifest.ok
        record = manifest.to_dict()
        assert record["status"] == "timed_out"
        assert record["attempts"] == 3
