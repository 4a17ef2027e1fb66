"""Tests for the benchmark profile table."""

import pytest

from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.workloads.specs import (
    BENCHMARK_NAMES,
    INTEGER_ONLY_BENCHMARKS,
    PROFILES,
    _mix,
    get_profile,
)


class TestSuiteShape:
    def test_eighteen_benchmarks(self):
        # Section 7.1: "We selected eighteen benchmarks".
        assert len(BENCHMARK_NAMES) == 18

    def test_names_unique(self):
        assert len(set(BENCHMARK_NAMES)) == 18

    def test_paper_roster(self):
        expected = {"backprop", "bfs", "btree", "cutcp", "gaussian",
                    "heartwall", "hotspot", "kmeans", "lavaMD", "lbm",
                    "LIB", "mri", "MUM", "NN", "nw", "sgemm", "srad",
                    "WP"}
        assert set(BENCHMARK_NAMES) == expected

    def test_suites_are_the_papers(self):
        assert {p.suite for p in PROFILES.values()} == \
            {"Rodinia", "Parboil", "ISPASS"}

    def test_integer_only_benchmarks(self):
        # "a couple of pure integer workloads (such as lavaMD)".
        assert set(INTEGER_ONLY_BENCHMARKS) == {"lavaMD", "nw"}
        for name in INTEGER_ONLY_BENCHMARKS:
            assert get_profile(name).spec.mix[OpClass.FP] == 0.0


class TestProfiles:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_mix_normalised(self, name):
        mix = get_profile(name).spec.mix
        assert sum(mix[cls] for cls in ALL_OP_CLASSES) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_residency_within_fermi_limits(self, name):
        spec = get_profile(name).spec
        assert 1 <= spec.max_resident_warps <= 48
        assert spec.n_warps >= spec.max_resident_warps

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_dram_latency_plausible(self, name):
        assert 100 <= get_profile(name).dram_latency <= 1000

    def test_fig5b_low_occupancy_count(self):
        # Section 4: "Only 5 out of 18 benchmarks have fewer than ten
        # active warps on average" -- the reference values must agree.
        low = [p.name for p in PROFILES.values()
               if p.paper_avg_active_warps < 10]
        assert len(low) == 5

    def test_fig5b_extremes(self):
        # Figure 5b orders srad highest and nw lowest.
        avgs = {p.name: p.paper_avg_active_warps for p in PROFILES.values()}
        assert max(avgs, key=avgs.get) == "srad"
        assert min(avgs, key=avgs.get) == "nw"

    def test_lookup_error_is_helpful(self):
        with pytest.raises(KeyError, match="hotspot"):
            get_profile("hotspto")

    def test_is_integer_only_flag(self):
        assert get_profile("lavaMD").is_integer_only
        assert not get_profile("sgemm").is_integer_only


class TestMixBuilder:
    def test_normalises_rounding_slack(self):
        mix = _mix(0.5, 0.3, 0.1, 0.2)  # sums to 1.1
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix[OpClass.INT] == pytest.approx(0.5 / 1.1)

    def test_all_zero_fractions_rejected(self):
        # Regression: this used to be a bare ZeroDivisionError.
        with pytest.raises(ValueError,
                           match="all four fractions are zero"):
            _mix(0.0, 0.0, 0.0, 0.0)

    def test_all_zero_error_names_the_spec(self):
        with pytest.raises(ValueError, match="'mystery'"):
            _mix(0.0, 0.0, 0.0, 0.0, name="mystery")
