"""Run-ledger: writer, readers, and the engine's batch flight recorder."""

import json

import pytest

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine
from repro.obs.ledger import (
    LedgerWriter,
    ledger_dir_for,
    list_runs,
    load_run,
    new_run_id,
    summarize_run,
)

from tests.engine.faults import FaultPlan, FaultyEngine


def _job(benchmark="hotspot", technique=Technique.BASELINE, seed=0):
    return JobRequest(benchmark=benchmark,
                      technique=technique, scale=0.2,
                      seed=seed)


class TestRunIds:
    def test_ids_are_sortable_and_unique(self):
        first = new_run_id(now=1_000_000.0)
        later = new_run_id(now=2_000_000.0)
        assert first < later  # lexical order == time order
        assert new_run_id() != new_run_id()  # random suffix

    def test_ledger_dir_nests_under_cache(self, tmp_path):
        assert ledger_dir_for(tmp_path) == tmp_path / "ledger"


class TestLedgerWriter:
    def test_round_trip(self, tmp_path):
        with LedgerWriter(tmp_path, "run1", jobs=2,
                          engine_jobs=4) as ledger:
            ledger.job(index=0, benchmark="hotspot", status="ok")
            ledger.job(index=1, benchmark="bfs", status="failed",
                       error="boom")
        records = load_run(tmp_path, "run1")
        kinds = [r["record"] for r in records]
        assert kinds == ["batch", "job", "job", "end"]
        assert records[0]["engine_jobs"] == 4
        assert records[-1]["counts"] == {"ok": 1, "failed": 1}

    def test_close_is_idempotent_and_takes_meta(self, tmp_path):
        ledger = LedgerWriter(tmp_path, "run2", jobs=0)
        ledger.close(profile_report="p.pstats")
        ledger.close(profile_report="ignored")
        records = load_run(tmp_path, "run2")
        footers = [r for r in records if r["record"] == "end"]
        assert len(footers) == 1
        assert footers[0]["profile_report"] == "p.pstats"

    def test_every_line_is_flushed(self, tmp_path):
        # A killed batch must still leave settled jobs readable — no
        # close() required.
        ledger = LedgerWriter(tmp_path, "run3", jobs=2)
        ledger.job(index=0, status="ok")
        records = load_run(tmp_path, "run3")
        assert [r["record"] for r in records] == ["batch", "job"]
        summary = summarize_run(records)
        assert summary["job_count"] == 1
        assert not summary["finished"]
        ledger.close()


class TestReaders:
    def _write(self, directory, run_id, statuses=("ok",)):
        with LedgerWriter(directory, run_id, jobs=len(statuses)) as lw:
            for i, status in enumerate(statuses):
                lw.job(index=i, status=status, cache_hit=(i == 0))

    def test_list_runs_is_chronological(self, tmp_path):
        self._write(tmp_path, "20260101T000000-aaaaaa")
        self._write(tmp_path, "20260102T000000-bbbbbb", ("ok", "failed"))
        summaries = list_runs(tmp_path)
        assert [s["run_id"] for s in summaries] \
            == ["20260101T000000-aaaaaa", "20260102T000000-bbbbbb"]
        assert summaries[1]["counts"] == {"ok": 1, "failed": 1}
        assert summaries[1]["cache_hits"] == 1
        assert all(s["finished"] for s in summaries)

    def test_list_runs_empty_or_missing_dir(self, tmp_path):
        assert list_runs(tmp_path) == []
        assert list_runs(tmp_path / "nope") == []

    def test_load_run_by_prefix(self, tmp_path):
        self._write(tmp_path, "20260101T000000-aaaaaa")
        self._write(tmp_path, "20260102T000000-bbbbbb")
        records = load_run(tmp_path, "20260102")
        assert records[0]["run_id"] == "20260102T000000-bbbbbb"

    def test_load_run_rejects_ambiguity_and_absence(self, tmp_path):
        self._write(tmp_path, "20260101T000000-aaaaaa")
        self._write(tmp_path, "20260101T000001-bbbbbb")
        with pytest.raises(ValueError, match="ambiguous"):
            load_run(tmp_path, "2026")
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path, "1999")

    def test_torn_final_line_is_skipped(self, tmp_path):
        self._write(tmp_path, "run9")
        path = tmp_path / "run9.jsonl"
        path.write_text(path.read_text() + '{"record": "job", "trunc',
                        encoding="utf-8")
        summary = summarize_run(load_run(tmp_path, "run9"))
        assert summary["job_count"] == 1  # the torn line never counted


class TestEngineLedger:
    """The acceptance path: ledger records mirror the outcome list."""

    def test_batch_ledger_matches_outcomes_exactly(self, tmp_path):
        jobs = [_job(seed=0), _job(seed=1),
                _job(technique=Technique.WARPED_GATES)]
        with ParallelEngine(jobs=2, cache_dir=str(tmp_path)) as engine:
            outcomes = engine.run_sim_jobs(jobs)
        run_id = engine.last_run_id
        assert run_id

        records = load_run(ledger_dir_for(tmp_path), run_id)
        ledgered = [r for r in records if r["record"] == "job"]
        assert len(ledgered) == len(outcomes)
        for job, outcome, record in zip(jobs, outcomes, ledgered):
            assert record["status"] == outcome.status.value
            assert record["spec_hash"] == job.spec.spec_hash()
            assert record["benchmark"] == job.benchmark
            assert record["seed"] == job.seed
            assert record["cycles"] == outcome.manifest.cycles
            assert record["cache_hit"] == outcome.manifest.cache_hit
            assert record["attempts"] == outcome.attempts
            # Manifests link back to the batch.
            assert outcome.manifest.run_id == run_id
            assert outcome.manifest.to_dict()["run_id"] == run_id

    def test_failures_are_recorded_with_their_error(self, tmp_path):
        plan = FaultPlan(crash=("hotspot/baseline/s0",))
        engine = FaultyEngine(plan, jobs=1, cache_dir=str(tmp_path))
        outcomes = engine.run_sim_jobs([_job(seed=0), _job(seed=1)])
        assert outcomes[0].status.value == "failed"
        assert outcomes[1].status.value == "ok"

        records = load_run(ledger_dir_for(tmp_path),
                           engine.last_run_id)
        jobs = [r for r in records if r["record"] == "job"]
        assert jobs[0]["status"] == "failed"
        assert "InjectedCrash" in jobs[0]["error"]
        assert jobs[1]["status"] == "ok"
        assert jobs[1]["error"] == ""

    def test_aborted_batch_closes_the_ledger(self, tmp_path):
        def interrupt(job):
            raise KeyboardInterrupt

        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            engine.run_sim_jobs([_job()], worker=interrupt)
        summaries = list_runs(ledger_dir_for(tmp_path))
        assert len(summaries) == 1
        assert summaries[0]["finished"]
        assert summaries[0]["aborted"] is True
        assert summaries[0]["job_count"] == 0

    def test_ledger_false_disables_recording(self, tmp_path):
        with ParallelEngine(jobs=1, cache_dir=str(tmp_path),
                            ledger=False) as engine:
            engine.run_sim_jobs([_job()])
        assert engine.last_run_id is None
        assert not ledger_dir_for(tmp_path).exists()

    def test_no_cache_dir_means_no_ledger_by_default(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        with ParallelEngine(jobs=1, cache_dir=None) as engine:
            engine.run_sim_jobs([_job()])
        assert engine.last_run_id is None
        assert list(tmp_path.iterdir()) == []

    def test_explicit_ledger_path_overrides(self, tmp_path):
        target = tmp_path / "ledgers"
        with ParallelEngine(jobs=1, cache_dir=None,
                            ledger=str(target)) as engine:
            engine.run_sim_jobs([_job()])
        assert engine.last_run_id
        summaries = list_runs(target)
        assert len(summaries) == 1
        assert summaries[0]["counts"] == {"ok": 1}

    def test_ledger_meta_lands_in_the_footer(self, tmp_path):
        with ParallelEngine(jobs=1, cache_dir=str(tmp_path)) as engine:
            engine.ledger_meta["profile_report"] = "x.pstats"
            engine.run_sim_jobs([_job()])
        records = load_run(ledger_dir_for(tmp_path),
                           engine.last_run_id)
        footer = next(r for r in records if r["record"] == "end")
        assert footer["profile_report"] == "x.pstats"

    def test_single_run_is_json_loadable_end_to_end(self, tmp_path):
        with ParallelEngine(jobs=1, cache_dir=str(tmp_path)) as engine:
            engine.run_sim_jobs([_job()])
        path = ledger_dir_for(tmp_path) / f"{engine.last_run_id}.jsonl"
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)  # every record is one valid JSON object
