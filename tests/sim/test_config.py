"""Validation tests for simulator configuration objects."""

import pytest

from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.memory import MemoryStats


class TestMemoryConfig:
    def test_defaults_are_fermi_like(self):
        config = MemoryConfig()
        assert config.l1_sets * config.l1_ways == 128  # 16KB / 128B lines
        assert config.dram_latency == 400

    def test_sets_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            MemoryConfig(l1_sets=12)
        with pytest.raises(ValueError):
            MemoryConfig(l1_sets=0)

    def test_ways_and_mshr_positive(self):
        with pytest.raises(ValueError):
            MemoryConfig(l1_ways=0)
        with pytest.raises(ValueError):
            MemoryConfig(mshr_entries=0)

    def test_jitter_range(self):
        with pytest.raises(ValueError):
            MemoryConfig(dram_jitter=1.0)
        with pytest.raises(ValueError):
            MemoryConfig(dram_jitter=-0.1)
        MemoryConfig(dram_jitter=0.0)  # boundary OK

    def test_frozen_and_hashable(self):
        assert hash(MemoryConfig()) == hash(MemoryConfig())


class TestSMConfig:
    def test_defaults_match_paper_setup(self):
        config = SMConfig()
        assert config.n_sp_clusters == 2
        assert config.issue_width == 2
        assert config.max_resident_warps == 48
        assert config.int_initiation_interval == 1

    @pytest.mark.parametrize("field,value", [
        ("n_sp_clusters", 0),
        ("issue_width", 0),
        ("fetch_width", 0),
        ("ibuffer_entries", 0),
        ("max_resident_warps", 0),
        ("int_initiation_interval", 0),
        ("sfu_initiation_interval", 0),
        ("ldst_initiation_interval", 0),
        ("max_cycles", 0),
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(ValueError):
            SMConfig(**{field: value})


class TestMemoryStats:
    def test_miss_rate_no_probes(self):
        assert MemoryStats().miss_rate == 0.0

    def test_miss_rate_counts_merges_as_misses(self):
        stats = MemoryStats(hits=6, misses=3, merged_misses=1)
        assert stats.miss_rate == pytest.approx(0.4)
