"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURE_BUILDERS, _engine, _failure_exit, \
    build_parser, main
from repro.obs.manifest import RunManifest


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Commands cache under ``CWD/.repro-cache``; keep it out of the repo."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "hotspot", "nope"])

    def test_unknown_technique_suggests_closest(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "hotspot", "warped_gate"])
        err = capsys.readouterr().err
        assert "unknown technique 'warped_gate'" in err
        assert "warped_gates" in err

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["--benchmarks", "hotspto", "characterize"])

    def test_unknown_benchmark_suggests_closest(self):
        with pytest.raises(SystemExit) as err:
            main(["--benchmarks", "hotspto", "characterize"])
        assert "unknown benchmark 'hotspto'" in str(err.value)
        assert "hotspot" in str(err.value)

    def test_duplicate_benchmark_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["--benchmarks", "hotspot,hotspot", "characterize"])
        assert "duplicate benchmark 'hotspot'" in str(err.value)

    def test_run_needs_technique_or_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "hotspot"])
        with pytest.raises(SystemExit):
            main(["run", "hotspot", "baseline", "--spec", "x.json"])

    def test_figure_choices_cover_registry(self):
        args = build_parser().parse_args(["figure", "fig10"])
        assert args.name == "fig10"
        assert set(FIGURE_BUILDERS) >= {"fig1b", "fig3", "fig5a", "fig5b",
                                        "fig8a", "fig8b", "fig8c",
                                        "fig9a", "fig9b", "fig10",
                                        "sec75"}


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hotspot" in out
        assert "warped_gates" in out
        assert "fig9a" in out

    def test_list_groups_and_describes_techniques(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper techniques:" in out
        assert "ablations:" in out
        # Each technique line carries its registered one-liner.
        assert "adaptive idle-detect" in out
        assert out.index("warped_gates") < out.index("gates_no_pg")

    def test_run(self, capsys):
        code = main(["--scale", "0.2", "--benchmarks", "hotspot",
                     "run", "hotspot", "conv_pg"])
        assert code == 0
        out = capsys.readouterr().out
        assert "int_static_savings" in out
        assert "normalized_performance" in out

    def test_figure_with_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "f.csv"
        json_path = tmp_path / "f.json"
        code = main(["--scale", "0.2", "--benchmarks", "hotspot,nw",
                     "figure", "fig9a",
                     "--csv", str(csv_path), "--json", str(json_path)])
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        document = json.loads(json_path.read_text())
        assert document["figure"] == "fig9a"
        names = [r["benchmark"] for r in document["records"]]
        assert names == ["hotspot", "nw", "average"]

    def test_sec75_figure_needs_no_simulation(self, capsys):
        assert main(["figure", "sec75"]) == 0
        assert "area_pct" in capsys.readouterr().out

    def test_characterize(self, capsys):
        code = main(["--scale", "0.2", "--benchmarks", "hotspot",
                     "characterize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5a" in out and "Figure 5b" in out

    def test_sweep(self, capsys):
        code = main(["--scale", "0.2", "--benchmarks", "hotspot",
                     "sweep", "bet"])
        assert code == 0
        assert "break-even" in capsys.readouterr().out

    def test_trace_export(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main(["--scale", "0.15", "trace", "hotspot", str(path)])
        assert code == 0
        from repro.isa.traceio import load_kernel
        kernel = load_kernel(path)
        assert kernel.name == "hotspot"
        assert kernel.total_instructions > 0

    def test_replicate(self, capsys):
        code = main(["--scale", "0.15", "--benchmarks", "hotspot",
                     "replicate", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 seeds" in out
        assert "warped_gates" in out

    def test_energy(self, capsys):
        code = main(["--scale", "0.15", "--benchmarks", "hotspot",
                     "energy", "hotspot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy breakdown" in out
        assert "overhead" in out
        # Baseline (no gating) totals exactly 1.0 by construction.
        baseline_rows = [line for line in out.splitlines()
                         if line.startswith("baseline")]
        assert len(baseline_rows) == 2
        for line in baseline_rows:
            assert line.rstrip().endswith("1.000")

    def test_run_with_observability_flags(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        trace_path = tmp_path / "trace.json"
        code = main(["--scale", "0.2", "--benchmarks", "hotspot",
                     "run", "hotspot", "warped_gates",
                     "--emit-events", str(events_path),
                     "--emit-chrome-trace", str(trace_path),
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Run manifests" in out
        assert "cycles/s" in out

        from repro.obs.exporters import (load_jsonl_events,
                                         validate_chrome_trace)
        records = load_jsonl_events(events_path)
        assert records and all("event" in r for r in records)
        document = json.loads(trace_path.read_text())
        validate_chrome_trace(document)
        assert "end_cycle" in document["otherData"]

    def test_fig6_figure(self, capsys):
        code = main(["--scale", "0.15", "--benchmarks", "hotspot",
                     "figure", "fig6"])
        assert code == 0
        assert "pearson_r" in capsys.readouterr().out


class TestFiguresCommand:
    def test_sec75_only_artifact_passes_check(self, capsys, tmp_path):
        # sec75 is closed-form (reproduces the paper's own synthesis
        # constants), so a sec75-only checked artifact is a
        # deterministic PASS and the command exits 0.
        out_dir = tmp_path / "results"
        code = main(["figures", "--out", str(out_dir),
                     "--figures", "sec75", "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and f"{out_dir / 'index.md'}" in out
        for filename in ("data.csv", "data.json", "summary.md",
                         "plot.py", "manifest.json"):
            assert (out_dir / "sec75" / filename).exists()
        document = json.loads((out_dir / "headline.json").read_text())
        assert document["verdict"] == "PASS"
        assert len(document["checks"]) == 4

    def test_unmeasurable_subset_fails_check_with_exit_3(self, capsys,
                                                         tmp_path):
        # fig5a contributes no headline metrics: an artifact that
        # measured nothing cannot be in band, so --check exits 3.
        code = main(["--scale", "0.15", "--benchmarks", "hotspot",
                     "figures", "--out", str(tmp_path / "results"),
                     "--figures", "fig5a", "--check"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_without_check_no_headline_file(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code = main(["figures", "--out", str(out_dir),
                     "--figures", "sec75"])
        assert code == 0
        assert (out_dir / "index.md").exists()
        assert not (out_dir / "headline.json").exists()

    def test_format_subset_controls_files(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["figures", "--out", str(out_dir),
                     "--figures", "sec75", "--format", "csv"]) == 0
        assert (out_dir / "sec75" / "data.csv").exists()
        assert not (out_dir / "sec75" / "data.json").exists()
        assert not (out_dir / "sec75" / "summary.md").exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown format"):
            main(["figures", "--out", str(tmp_path / "r"),
                  "--format", "xml", "--figures", "sec75"])

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown figure 'fig9'"):
            main(["figures", "--out", str(tmp_path / "r"),
                  "--figures", "fig9"])


class TestEngineFlags:
    def test_engine_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["run", "hotspot", "baseline"])
        assert args.jobs == 1
        assert not args.no_cache
        assert not args.no_fast_forward

    def test_jobs_output_matches_serial(self, capsys):
        base_args = ["--scale", "0.2", "--benchmarks", "hotspot",
                     "run", "hotspot", "conv_pg"]
        assert main(["--no-cache", "--no-fast-forward"] + base_args) == 0
        serial_out = capsys.readouterr().out
        assert main(["--jobs", "2", "--no-cache"] + base_args) == 0
        assert capsys.readouterr().out == serial_out

    def test_default_run_populates_cache(self, capsys, tmp_path):
        args = ["--scale", "0.2", "--benchmarks", "hotspot",
                "run", "hotspot", "conv_pg", "--profile"]
        assert main(args) == 0
        first = capsys.readouterr().out
        cache_root = tmp_path / ".repro-cache"
        assert (cache_root / "results").is_dir()
        assert (cache_root / "traces").is_dir()
        # Second invocation serves from cache, identical metrics table.
        assert main(args) == 0
        second = capsys.readouterr().out
        cut = first.index("Run manifests")
        assert second[:cut] == first[:cut]

    def test_no_cache_leaves_no_directory(self, capsys, tmp_path):
        assert main(["--no-cache", "--scale", "0.2",
                     "--benchmarks", "hotspot",
                     "run", "hotspot", "baseline"]) == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_replicate_with_jobs(self, capsys):
        code = main(["--jobs", "2", "--no-cache", "--scale", "0.15",
                     "--benchmarks", "hotspot",
                     "replicate", "--seeds", "2"])
        assert code == 0
        assert "2 seeds" in capsys.readouterr().out


class TestRunsCommand:
    RUN_ARGS = ["--scale", "0.2", "--benchmarks", "hotspot",
                "run", "hotspot", "baseline"]

    def test_list_with_no_ledger(self, capsys):
        assert main(["runs", "list"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_show_unknown_run_exits_with_error(self):
        with pytest.raises(SystemExit, match="no run matching"):
            main(["runs", "show", "19990101"])

    def test_list_and_show_after_a_run(self, capsys, tmp_path):
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()

        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out
        rows = [line for line in out.splitlines()
                if line and line[0].isdigit()]
        assert rows  # every engine batch left a ledger
        assert all("yes" in row for row in rows)  # all finished
        run_id = rows[-1].split()[0]

        assert main(["runs", "show", run_id]) == 0
        shown = capsys.readouterr().out
        assert f"run {run_id}" in shown
        assert "hotspot" in shown and "baseline" in shown
        assert "finished=yes" in shown

        # Prefix lookup + raw JSON dump round-trip.
        assert main(["runs", "show", run_id[:10], "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        kinds = [r["record"] for r in records]
        assert kinds[0] == "batch" and kinds[-1] == "end"
        jobs = [r for r in records if r["record"] == "job"]
        assert jobs and all(r["status"] == "ok" for r in jobs)
        assert all(r["spec_hash"] for r in jobs)

    def test_show_ambiguous_prefix_exits_with_error(self, capsys):
        # Two invocations -> two ledgers sharing the "2" prefix.
        assert main(self.RUN_ARGS) == 0
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["runs", "show", "2"])


class TestTelemetryFlags:
    def test_progress_heartbeat_on_stderr(self, capsys):
        code = main(["--progress", "--scale", "0.2",
                     "--benchmarks", "hotspot",
                     "run", "hotspot", "baseline"])
        assert code == 0
        captured = capsys.readouterr()
        # The metrics table stays on stdout, untouched by progress.
        assert "normalized_performance" in captured.out
        final = captured.err.splitlines()[-1]
        assert final.startswith("[") and "ok=" in final

    def test_engine_events_and_trace_files(self, capsys, tmp_path):
        events_path = tmp_path / "engine-events.jsonl"
        trace_path = tmp_path / "engine-trace.json"
        code = main(["--jobs", "2",
                     "--engine-events", str(events_path),
                     "--engine-trace", str(trace_path),
                     "--scale", "0.2", "--benchmarks", "hotspot",
                     "run", "hotspot", "warped_gates"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {events_path}" in out
        assert f"wrote {trace_path}" in out

        from repro.obs.exporters import (load_jsonl_events,
                                         validate_chrome_trace)
        records = load_jsonl_events(events_path)
        events = {r["event"] for r in records}
        assert {"JobQueued", "JobStarted", "JobFinished",
                "WorkerEventSummary"} <= events
        document = json.loads(trace_path.read_text())
        validate_chrome_trace(document)
        assert document["otherData"]["workers"]

    def test_profile_writes_aggregated_report(self, capsys, tmp_path):
        # `run` simulates its cells as 1-job inline batches, so the
        # report here merges 0 worker dumps (the parent profile still
        # captures the simulation); the pooled worker-dump path is
        # pinned by tests/obs TestWorkerProfiling.
        code = main(["--jobs", "2", "--scale", "0.2",
                     "--benchmarks", "hotspot",
                     "run", "hotspot", "conv_pg", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        # The report prints after the manifests table, names the
        # written pstats file and counts the merged worker dumps.
        assert out.index("Run manifests") < out.index("profile report:")
        report_line = next(line for line in out.splitlines()
                           if line.startswith("profile report:"))
        report_path = report_line.split()[2]
        assert (tmp_path / report_path).exists()
        assert "worker dump(s)" in report_line
        import pstats
        stats = pstats.Stats(str(tmp_path / report_path))
        assert stats.total_calls > 0

    def test_profile_report_linked_from_ledger(self, capsys, tmp_path):
        assert main(["--scale", "0.2", "--benchmarks", "hotspot",
                     "run", "hotspot", "baseline", "--profile"]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        run_id = [line for line in capsys.readouterr().out.splitlines()
                  if line and line[0].isdigit()][0].split()[0]
        assert main(["runs", "show", run_id]) == 0
        assert "profile report:" in capsys.readouterr().out


class TestFaultFlags:
    def test_fault_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["run", "hotspot", "baseline"])
        assert not args.fail_fast
        assert args.max_retries == 0
        assert args.job_timeout is None
        assert args.cache_cap_mb is None

    def test_fault_flags_reach_the_engine_policy(self):
        args = build_parser().parse_args(
            ["--fail-fast", "--max-retries", "2", "--job-timeout", "30",
             "--cache-cap-mb", "64", "--no-cache",
             "run", "hotspot", "baseline"])
        engine = _engine(args)
        assert engine.policy.fail_fast
        assert engine.policy.max_retries == 2
        assert engine.policy.job_timeout == 30.0
        assert engine.cache_max_bytes == 64 * 2 ** 20

    def test_failure_exit_silent_when_all_ok(self, capsys):
        ok = RunManifest(benchmark="hotspot", technique="baseline",
                         seed=0, scale=0.2, run_key="abc",
                         cycles=10, instructions=5)
        assert _failure_exit([ok]) == 0
        assert capsys.readouterr().err == ""

    def test_failure_exit_reports_failed_jobs(self, capsys):
        failed = RunManifest(benchmark="bfs", technique="conv_pg",
                             seed=0, scale=0.2, run_key="abc",
                             cycles=0, instructions=0, status="failed",
                             error="Traceback ...\nInjectedCrash: boom",
                             attempts=2)
        assert _failure_exit([failed]) == 3
        err = capsys.readouterr().err
        assert "bfs" in err and "conv_pg" in err
        assert "InjectedCrash: boom" in err
        assert "1 job(s) failed" in err


#: A composition no enum member ever named: the two-level baseline
#: scheduler crossed with Coordinated Blackout and adaptive idle-detect.
CUSTOM_SPEC = {
    "name": "two_level_coord_blackout_adaptive",
    "description": "two-level x Coordinated Blackout x adaptive "
                   "idle-detect",
    "scheduler": {"name": "two_level"},
    "gating_policy": {"name": "coordinated_blackout",
                      "params": {"max_domains": 8}},
    "gating": {"idle_detect": 5, "bet": 14, "wakeup_delay": 3},
    "adaptive": {"min_idle_detect": 5, "max_idle_detect": 10,
                 "epoch_cycles": 1000, "threshold": 5,
                 "decay_epochs": 4},
}


class TestSpecCommands:
    def test_spec_show_round_trips(self, capsys):
        assert main(["spec", "show", "warped_gates"]) == 0
        from repro.core.spec import TechniqueSpec, technique_spec
        document = json.loads(capsys.readouterr().out)
        spec = TechniqueSpec.from_dict(document)
        assert spec == technique_spec("warped_gates")

    def test_spec_validate_accepts_good_file(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        assert main(["spec", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and CUSTOM_SPEC["name"] in out

    @pytest.mark.parametrize("document,fragment", [
        ({**CUSTOM_SPEC, "scheduler": "gatez"}, "unknown scheduler"),
        ({**CUSTOM_SPEC, "gating": {"bet": -1}}, "bet must be"),
        ({**CUSTOM_SPEC, "extra_key": 1}, "unknown spec key"),
    ])
    def test_spec_validate_rejects_bad_file(self, capsys, tmp_path,
                                            document, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as err:
            main(["spec", "validate", str(path)])
        assert fragment in str(err.value)

    def test_spec_validate_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["spec", "validate", str(path)])


class TestSpecFileIntegration:
    """The never-enum-named composition, end to end.

    CLI --spec file → engine (persistent cache) → manifests: the full
    acceptance path for arbitrary scheduler × gating × adaptive
    compositions.
    """

    def _write_spec(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        return path

    def test_spec_file_runs_and_hits_cache_on_rerun(self, capsys,
                                                    tmp_path):
        args = ["--scale", "0.2", "--benchmarks", "hotspot",
                "run", "hotspot", "--spec",
                str(self._write_spec(tmp_path)), "--profile"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert f"hotspot / {CUSTOM_SPEC['name']}" in first
        custom_rows = [line for line in first.splitlines()
                       if line.startswith(f"hotspot    "
                                          f"{CUSTOM_SPEC['name']}")]
        assert custom_rows and "miss" in custom_rows[0]
        # The cache entry is keyed by the custom spec's name + hash.
        results = tmp_path / ".repro-cache" / "results"
        assert any(CUSTOM_SPEC["name"] in p.name
                   for p in results.iterdir())

        assert main(args) == 0
        second = capsys.readouterr().out
        custom_rows = [line for line in second.splitlines()
                       if line.startswith(f"hotspot    "
                                          f"{CUSTOM_SPEC['name']}")]
        assert custom_rows and "hit" in custom_rows[0]
        # Identical headline metrics either way.
        cut = first.index("Run manifests")
        assert second[:cut] == first[:cut]

    def test_manifest_embeds_the_full_spec(self):
        from repro.core.spec import TechniqueSpec
        from repro.harness.experiment import (ExperimentRunner,
                                              ExperimentSettings)

        spec = TechniqueSpec.from_dict(CUSTOM_SPEC)
        runner = ExperimentRunner(ExperimentSettings(
            scale=0.15, benchmarks=("hotspot",)))
        runner.run("hotspot", spec)
        manifest = runner.manifests[-1]
        assert manifest.technique == spec.name
        # The embedded document is lossless: it rebuilds the identical
        # spec, so any manifest can be re-run byte-for-byte.
        rebuilt = TechniqueSpec.from_dict(manifest.spec)
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert manifest.to_dict()["spec"] == spec.to_dict()
