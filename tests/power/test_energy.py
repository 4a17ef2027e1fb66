"""Tests for energy accounting."""

import pytest

from repro.power.energy import (
    DomainEnergy,
    chip_level_savings,
    domain_energy,
)
from repro.power.params import EnergyParams, GTX480PowerModel


PARAMS = EnergyParams.for_unit(dyn_per_issue=2.0, bet=14)


class TestDomainEnergy:
    def test_validation_negative(self):
        with pytest.raises(ValueError):
            DomainEnergy(cycles=-1, gated_cycles=0, issues=0,
                         gating_events=0)

    def test_validation_gated_exceeds_cycles(self):
        with pytest.raises(ValueError):
            DomainEnergy(cycles=10, gated_cycles=11, issues=0,
                         gating_events=0)

    def test_addition(self):
        a = DomainEnergy(100, 20, 30, 2)
        b = DomainEnergy(50, 10, 5, 1)
        c = a + b
        assert (c.cycles, c.gated_cycles, c.issues, c.gating_events) == \
            (150, 30, 35, 3)


class TestBreakdown:
    def test_components(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=300, issues=200,
                                gating_events=10)
        breakdown = domain_energy(activity, PARAMS)
        assert breakdown.dynamic == pytest.approx(400.0)
        assert breakdown.static == pytest.approx(700.0)
        assert breakdown.overhead == pytest.approx(140.0)
        assert breakdown.baseline_static == pytest.approx(1000.0)

    def test_savings_definition(self):
        # savings = (gated - events * BET) / cycles for canonical overhead
        activity = DomainEnergy(cycles=1000, gated_cycles=300, issues=0,
                                gating_events=10)
        saving = domain_energy(activity, PARAMS).static_savings
        assert saving == pytest.approx((300 - 140) / 1000)

    def test_negative_savings_possible(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=50, issues=0,
                                gating_events=10)
        assert domain_energy(activity, PARAMS).static_savings < 0

    def test_exact_bet_windows_are_energy_neutral(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=140, issues=0,
                                gating_events=10)
        saving = domain_energy(activity, PARAMS).static_savings
        assert saving == pytest.approx(0.0)

    def test_no_gating_zero_savings(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=0, issues=500,
                                gating_events=0)
        assert domain_energy(activity, PARAMS).static_savings == 0.0

    def test_normalized_sums_to_one_without_gating(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=0, issues=250,
                                gating_events=0)
        norm = domain_energy(activity, PARAMS).normalized()
        assert norm.dynamic + norm.static == pytest.approx(1.0)

    def test_normalized_degenerate(self):
        norm = domain_energy(DomainEnergy(0, 0, 0, 0), PARAMS).normalized()
        assert norm.total == 0.0

    def test_leakage_magnitude_cancels_in_savings(self):
        activity = DomainEnergy(cycles=1000, gated_cycles=400, issues=100,
                                gating_events=5)
        a = EnergyParams.for_unit(dyn_per_issue=2.0, bet=14,
                                  leak_per_cycle=1.0)
        b = EnergyParams.for_unit(dyn_per_issue=14.0, bet=14,
                                  leak_per_cycle=7.0)
        assert domain_energy(activity, a).static_savings == \
            pytest.approx(domain_energy(activity, b).static_savings)


class TestChipLevel:
    def test_weights_follow_unit_leakage(self):
        # FP leakage dwarfs INT on GTX480, so FP savings dominate.
        model = GTX480PowerModel()
        heavy_fp = chip_level_savings(0.0, 0.45, model)
        heavy_int = chip_level_savings(0.45, 0.0, model)
        assert heavy_fp > heavy_int * 100

    def test_paper_arithmetic_range(self):
        # Section 7.3: 30-45% exec static savings -> 1.62-2.43% of chip
        # power at 33% leakage share.
        low = chip_level_savings(0.30, 0.30)
        high = chip_level_savings(0.45, 0.45)
        assert low == pytest.approx(0.0162, abs=0.001)
        assert high == pytest.approx(0.0243, abs=0.001)

    def test_fifty_percent_leakage_projection(self):
        high = chip_level_savings(0.45, 0.45, leakage_share_of_chip=0.50)
        assert high == pytest.approx(0.0369, abs=0.001)

    def test_leakage_share_validated(self):
        with pytest.raises(ValueError):
            GTX480PowerModel().chip_savings_fraction(0.3,
                                                     leakage_share_of_chip=1.5)
