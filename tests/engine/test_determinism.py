"""Engine determinism: ``--jobs 4`` is bit-identical to ``--jobs 1``.

The ISSUE's contract for the parallel engine: for every technique on
two benchmarks, fanning the grid over four worker processes yields
byte-identical ``SimResult.metrics`` and energy breakdowns compared to
the inline path.  The cache is disabled throughout so a stale entry
cannot mask a divergence.
"""

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.isa.optypes import ExecUnitKind
from repro.power.energy import domain_energy

BENCHMARKS = ("hotspot", "bfs")
SCALE = 0.2
SETTINGS = ExperimentSettings(scale=SCALE)


def _grid():
    return [JobRequest(benchmark=name, technique=technique, scale=SCALE)
            for name in BENCHMARKS for technique in Technique]


def _energy(result):
    return [domain_energy(result.unit_activity(kind),
                          SETTINGS.energy_params(kind))
            for kind in (ExecUnitKind.INT, ExecUnitKind.FP)]


class TestPoolDeterminism:
    def test_jobs4_bit_identical_to_jobs1_every_technique(self):
        jobs = _grid()
        with ParallelEngine(jobs=1, cache_dir=None) as inline:
            serial = inline.run_sim_jobs(jobs)
        with ParallelEngine(jobs=4, cache_dir=None) as pooled:
            parallel = pooled.run_sim_jobs(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for job, a, b in zip(jobs, serial, parallel):
            label = (job.benchmark, job.spec.name)
            assert b.result.cycles == a.result.cycles, label
            assert b.result.metrics == a.result.metrics, label
            assert _energy(b.result) == _energy(a.result), label

    def test_repeated_batches_are_stable(self):
        jobs = _grid()[:4]
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            first = engine.run_sim_jobs(jobs)
            second = engine.run_sim_jobs(jobs)
        for a, b in zip(first, second):
            assert a.result.metrics == b.result.metrics


class TestRunnerEngineEquivalence:
    def test_engine_runner_matches_legacy_runner(self):
        legacy = ExperimentRunner(SETTINGS)
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            fanned = ExperimentRunner(SETTINGS, engine=engine)
            fanned.prefetch([(name, technique)
                             for name in BENCHMARKS
                             for technique in (Technique.BASELINE,
                                               Technique.WARPED_GATES)])
            for name in BENCHMARKS:
                for technique in (Technique.BASELINE,
                                  Technique.WARPED_GATES):
                    a = legacy.run(name, technique)
                    b = fanned.run(name, technique)
                    assert b.cycles == a.cycles
                    assert b.metrics == a.metrics
        assert len(fanned.manifests) == 4

    def test_prefetch_skips_memoised_cells(self):
        with ParallelEngine(jobs=1, cache_dir=None) as engine:
            runner = ExperimentRunner(SETTINGS, engine=engine)
            runner.run("hotspot", Technique.BASELINE)
            runner.prefetch([("hotspot", Technique.BASELINE),
                             ("hotspot", Technique.BASELINE)])
            assert len(runner.manifests) == 1
