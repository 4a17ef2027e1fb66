"""Tests for the experiment runner and derived metrics."""

import math
from collections import Counter

import pytest

from repro.core.spec import TechniqueSpec, technique_spec
from repro.core.techniques import Technique
from repro.engine.pool import ParallelEngine
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    geomean,
    geomean_excluding,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind
from repro.power.params import GatingParams

from tests.conftest import TEST_SCALE

SETTINGS = ExperimentSettings(scale=TEST_SCALE, benchmarks=("hotspot",))


class TestRunnerCaching:
    def test_memoises_identical_runs(self):
        runner = ExperimentRunner(SETTINGS)
        a = runner.run("hotspot", Technique.BASELINE)
        b = runner.run("hotspot", Technique.BASELINE)
        assert a is b

    def test_different_gating_params_not_conflated(self):
        runner = ExperimentRunner(SETTINGS)
        a = runner.run("hotspot", Technique.CONV_PG,
                       gating=GatingParams(idle_detect=5))
        b = runner.run("hotspot", Technique.CONV_PG,
                       gating=GatingParams(idle_detect=9))
        assert a is not b

    def test_suite_covers_grid(self):
        # The figures' path: prefetch the grid, then read each cell.
        runner = ExperimentRunner(ExperimentSettings(
            scale=TEST_SCALE, benchmarks=("hotspot", "nw")))
        cells = [(name, technique) for name in ("hotspot", "nw")
                 for technique in (Technique.BASELINE, Technique.CONV_PG)]
        runner.prefetch(cells)
        for name, technique in cells:
            result = runner.run(name, technique)
            assert (result.kernel_name, result.technique) == \
                (name, technique.value)


class TestRunIdentity:
    TECHNIQUES = ("baseline", "conv_pg", "gates", "naive_blackout",
                  "coord_blackout", "warped_gates")

    def test_names_and_enums_resolve_to_the_registered_spec(self):
        runner = ExperimentRunner(SETTINGS)
        registered = technique_spec("warped_gates")
        assert runner._resolve("warped_gates") is registered
        assert runner._resolve(Technique.WARPED_GATES) is registered
        assert runner._resolve("warped_gates",
                               gating=GatingParams()) is registered

    def test_resolve_still_applies_differing_gating(self):
        runner = ExperimentRunner(SETTINGS)
        spec = runner._resolve("conv_pg", gating=GatingParams(bet=20))
        assert spec.gating == GatingParams(bet=20)
        # Equal but differently typed parameters hash differently, so
        # they must not collapse onto the registered spec.
        floats = runner._resolve("conv_pg", gating=GatingParams(bet=14.0))
        assert floats is not technique_spec("conv_pg")
        assert floats.spec_hash() != technique_spec("conv_pg").spec_hash()

    def test_warm_pass_hashes_each_spec_at_most_once(self, tmp_path,
                                                     monkeypatch):
        settings = ExperimentSettings(scale=TEST_SCALE,
                                      benchmarks=("hotspot", "nw"))
        cells = [(b, t) for b in settings.benchmarks
                 for t in self.TECHNIQUES]

        def grid_pass():
            with ParallelEngine(jobs=1, cache_dir=str(tmp_path)) as engine:
                runner = ExperimentRunner(settings, engine=engine)
                runner.prefetch(cells)
                for benchmark, technique in cells:
                    runner.run(benchmark, technique)
            return runner

        grid_pass()  # fills the cache
        calls = Counter()
        hashed = []  # keeps counted specs alive, so no id is reused
        canonical_json = TechniqueSpec.canonical_json

        def counting(spec):
            calls[id(spec)] += 1
            hashed.append(spec)
            return canonical_json(spec)

        monkeypatch.setattr(TechniqueSpec, "canonical_json", counting)
        runner = grid_pass()
        assert all(m.cache_hit for m in runner.manifests)
        assert len(runner.manifests) == len(cells)
        assert max(calls.values(), default=0) <= 1
        assert sum(calls.values()) <= len(self.TECHNIQUES)


class TestMetrics:
    def test_baseline_savings_zero(self):
        runner = ExperimentRunner(SETTINGS)
        assert runner.static_savings("hotspot", Technique.BASELINE,
                                     ExecUnitKind.INT) == 0.0

    def test_savings_bounded_above_by_one(self):
        runner = ExperimentRunner(SETTINGS)
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP):
            s = runner.static_savings("hotspot", Technique.WARPED_GATES,
                                      kind)
            assert s <= 1.0

    def test_breakdown_normalises(self):
        runner = ExperimentRunner(SETTINGS)
        norm = runner.energy_breakdown(
            "hotspot", Technique.BASELINE, ExecUnitKind.INT).normalized()
        assert norm.dynamic + norm.static == pytest.approx(1.0)
        assert norm.overhead == 0.0

    def test_fp_population_excludes_integer_only(self):
        runner = ExperimentRunner(ExperimentSettings(
            scale=TEST_SCALE, benchmarks=("hotspot", "lavaMD", "nw")))
        assert runner.fp_benchmarks() == ("hotspot",)

    def test_energy_params_per_kind(self):
        assert SETTINGS.energy_params(ExecUnitKind.INT).dyn_per_issue > \
            SETTINGS.energy_params(ExecUnitKind.FP).dyn_per_issue


class TestNormalizedPerformance:
    def test_identity(self):
        runner = ExperimentRunner(SETTINGS)
        base = runner.baseline("hotspot")
        assert normalized_performance(base, base) == 1.0

    def test_slower_run_below_one(self):
        runner = ExperimentRunner(SETTINGS)
        base = runner.baseline("hotspot")
        naive = runner.run("hotspot", Technique.NAIVE_BLACKOUT)
        # Blackout may cost cycles but never a large factor at this scale.
        assert 0.5 < normalized_performance(base, naive) <= 1.2


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestGeomeanExcluding:
    """The documented companion policy: strict ``geomean`` raises on
    bad input, ``geomean_excluding`` drops it and reports the count."""

    def test_clean_input_matches_strict(self):
        value, excluded = geomean_excluding([1.0, 4.0])
        assert value == pytest.approx(geomean([1.0, 4.0]))
        assert excluded == 0

    def test_drops_nonfinite_and_nonpositive(self):
        value, excluded = geomean_excluding(
            [2.0, math.nan, 8.0, 0.0, -1.0, math.inf])
        assert value == pytest.approx(4.0)
        assert excluded == 4

    def test_nothing_survives_is_nan(self):
        value, excluded = geomean_excluding([math.nan, 0.0])
        assert math.isnan(value)
        assert excluded == 2

    def test_empty_is_nan_with_zero_excluded(self):
        value, excluded = geomean_excluding([])
        assert math.isnan(value)
        assert excluded == 0
