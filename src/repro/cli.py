"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``          — benchmarks and techniques available.
* ``run``           — run one benchmark under one technique, print the
  headline metrics.
* ``figure``        — regenerate one of the paper's figures (prints the
  rows; ``--csv`` / ``--json`` export them).
* ``figures``       — regenerate the *whole* paper artifact into one
  directory per figure (data + summary + plot stub + provenance
  manifest) and, under ``--check``, compare every measured headline
  against the paper's tolerance bands (exit 3 when out of band).
* ``characterize``  — the Figure 5 workload-characterisation tables.
* ``sweep``         — Figure 11 parameter sweeps (``bet`` / ``wakeup``).
* ``runs``          — query past engine batches from the run ledger
  (``list`` / ``show <run>``).
* ``serve``         — run the simulation service as a JSON-over-HTTP
  daemon (submit/status/result/stream endpoints over one shared
  single-flight core).
* ``submit``        — client side of ``serve``: submit one job to a
  running service, optionally stream its event feed and wait for the
  settled result.
* ``spec``          — inspect (``show``) or check (``validate``)
  declarative technique specs.

Engine telemetry rides on global flags: ``--progress`` renders live
batch progress (TTY-aware), ``--engine-events`` / ``--engine-trace``
export the engine event stream as JSONL / a Chrome trace with one lane
per worker process, and ``run --profile`` aggregates per-worker
cProfile dumps into one report.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import tempfile
import time as _time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_fraction, format_table
from repro.core.spec import (
    TechniqueSpec,
    technique_names,
    technique_spec,
    techniques_by_group,
    unknown_name_error,
    validate_names,
)
from repro.core.techniques import Technique
from repro.engine.faults import JobFailedError, last_error_line
from repro.harness import figures
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    normalized_performance,
    static_savings,
)
from repro.harness.export import rows_to_csv, rows_to_json
from repro.harness.sweeps import (
    SWEEP_HEADERS,
    bet_sweep,
    sweep_rows,
    wakeup_sweep,
)
from repro.harness.artifact import FIGURES, generate_artifact
from repro.isa.optypes import ExecUnitKind
from repro.workloads.specs import BENCHMARK_NAMES

#: figure name -> (headers, builder taking a runner).  Derived from the
#: artifact registry so ``repro figure`` and ``repro figures`` can never
#: disagree about what a figure's rows are.
FIGURE_BUILDERS: Dict[str, Tuple[Sequence[str], Callable]] = {
    name: (spec.headers, spec.build) for name, spec in FIGURES.items()
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Warped Gates (MICRO 2013) reproduction harness")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace-generation seed")
    parser.add_argument("--benchmarks", metavar="NAME[,NAME...]",
                        default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the experiment grid "
                             "(default 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent .repro-cache/ "
                             "result/trace cache")
    parser.add_argument("--no-fast-forward", action="store_true",
                        help="step every cycle serially instead of "
                             "skipping quiet spans and stepping the rest "
                             "in the dense kernel (results are "
                             "bit-identical either way)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first job failure (exit 2) "
                             "instead of completing the grid (exit 3)")
    parser.add_argument("--max-retries", type=int, default=0, metavar="N",
                        help="retry a failed/timed-out job up to N times "
                             "(default 0)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget; hung workers "
                             "are killed (needs --jobs > 1)")
    parser.add_argument("--cache-cap-mb", type=float, default=None,
                        metavar="MB",
                        help="cap the persistent cache size; "
                             "least-recently-used entries are evicted")
    parser.add_argument("--progress", action="store_true",
                        help="live engine-batch progress on stderr "
                             "(single redrawn line on a TTY, heartbeat "
                             "lines otherwise); does not change how "
                             "jobs run")
    parser.add_argument("--engine-events", metavar="PATH", default=None,
                        help="write the engine event stream (jobs, "
                             "retries, cache, worker summaries) as "
                             "JSONL; does not change how jobs run")
    parser.add_argument("--engine-trace", metavar="PATH", default=None,
                        help="write the whole batch as one Chrome "
                             "trace with a lane per worker process; "
                             "does not change how jobs run")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and techniques")

    run_cmd = sub.add_parser("run", help="run one benchmark/technique")
    run_cmd.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run_cmd.add_argument("technique", nargs="?", default=None,
                         type=_technique_name,
                         help="registered technique name (see "
                              "'repro list'); omit when using --spec")
    run_cmd.add_argument("--spec", metavar="PATH", default=None,
                         dest="spec_file",
                         help="run a technique defined by a JSON spec "
                              "file instead of a registered name")
    run_cmd.add_argument("--n-sms", type=int, default=1, metavar="N",
                         help="run at device scale on N SMs (kernel "
                              "warps split round-robin, shared "
                              "memory-side contention; 15 = the "
                              "gtx480 preset's chip)")
    run_cmd.add_argument("--emit-events", metavar="PATH", default=None,
                         help="write the run's event stream as JSONL; "
                              "the run takes the same execution path, "
                              "only the export costs time")
    run_cmd.add_argument("--emit-chrome-trace", metavar="PATH",
                         default=None,
                         help="write a Chrome trace-event JSON of the "
                              "run (load in Perfetto / chrome://tracing); "
                              "the run takes the same execution path, "
                              "only the export costs time")
    run_cmd.add_argument("--profile", action="store_true",
                         help="print per-run provenance manifests and "
                              "cProfile the command — per-worker dumps "
                              "under --jobs are aggregated into one "
                              "pstats report")

    fig_cmd = sub.add_parser("figure", help="regenerate a paper figure")
    fig_cmd.add_argument("name", choices=sorted(FIGURE_BUILDERS))
    fig_cmd.add_argument("--csv", metavar="PATH",
                         help="also write the rows as CSV")
    fig_cmd.add_argument("--json", metavar="PATH",
                         help="also write the rows as JSON")

    figs_cmd = sub.add_parser(
        "figures",
        help="regenerate the full paper artifact (one directory per "
             "figure + tolerance-gated headline checks)")
    figs_cmd.add_argument("--out", metavar="DIR", default="results",
                          help="artifact output directory "
                               "(default results/)")
    figs_cmd.add_argument("--figures", metavar="NAME[,NAME...]",
                          default=None, dest="figure_subset",
                          help="comma-separated figure subset "
                               "(default: all)")
    figs_cmd.add_argument("--format", metavar="FMT[,FMT...]",
                          default="csv,json,md", dest="formats",
                          help="data formats per figure directory, "
                               "from csv,json,md (default all three)")
    figs_cmd.add_argument("--check", action="store_true",
                          help="compare measured headlines against the "
                               "paper's tolerance bands; exit 3 if any "
                               "metric is out of band (FAIL)")

    sub.add_parser("characterize", help="Figure 5 tables")

    sweep_cmd = sub.add_parser("sweep", help="Figure 11 sweeps")
    sweep_cmd.add_argument("axis", choices=["bet", "wakeup"])

    runs_cmd = sub.add_parser(
        "runs", help="query past engine batches from the run ledger")
    runs_sub = runs_cmd.add_subparsers(dest="runs_command",
                                       required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list recorded engine batches, newest last")
    runs_list.add_argument("--limit", type=int, default=20, metavar="N",
                           help="show at most the N newest runs "
                                "(default 20)")
    runs_show = runs_sub.add_parser(
        "show", help="print one batch's per-job ledger records")
    runs_show.add_argument("run",
                           help="run id, or any unambiguous prefix")
    runs_show.add_argument("--json", action="store_true",
                           dest="as_json",
                           help="dump the raw ledger records as JSON")

    trace_cmd = sub.add_parser("trace",
                               help="export a benchmark's kernel trace")
    trace_cmd.add_argument("benchmark", choices=BENCHMARK_NAMES)
    trace_cmd.add_argument("path", help="output JSON path")

    energy_cmd = sub.add_parser(
        "energy", help="per-benchmark energy breakdown per technique")
    energy_cmd.add_argument("benchmark", choices=BENCHMARK_NAMES)

    replicate_cmd = sub.add_parser(
        "replicate", help="multi-seed replication of the headline table")
    replicate_cmd.add_argument("--seeds", type=int, default=3,
                               help="number of seeds (default 3)")

    serve_cmd = sub.add_parser(
        "serve", help="run the simulation service over HTTP "
                      "(submit/status/result/stream)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8352,
                           help="bind port; 0 picks a free one "
                                "(default 8352)")
    serve_cmd.add_argument("--max-pending", type=int, default=64,
                           metavar="N",
                           help="admission bound: submissions past N "
                                "unsettled jobs get 429 (default 64)")

    submit_cmd = sub.add_parser(
        "submit", help="submit one job to a running 'repro serve'")
    submit_cmd.add_argument("benchmark", choices=BENCHMARK_NAMES)
    submit_cmd.add_argument("technique", nargs="?", default=None,
                            type=_technique_name,
                            help="registered technique name; omit when "
                                 "using --spec")
    submit_cmd.add_argument("--spec", metavar="PATH", default=None,
                            dest="spec_file",
                            help="submit a technique defined by a JSON "
                                 "spec file instead of a registered name")
    submit_cmd.add_argument("--host", default="127.0.0.1",
                            help="service address (default 127.0.0.1)")
    submit_cmd.add_argument("--port", type=int, default=8352,
                            help="service port (default 8352)")
    submit_cmd.add_argument("--wait", type=float, default=600.0,
                            metavar="SECONDS",
                            help="how long to wait for the settled "
                                 "result (default 600)")
    submit_cmd.add_argument("--no-wait", action="store_true",
                            help="submit and exit without waiting")
    submit_cmd.add_argument("--stream", action="store_true",
                            help="print the job's event feed (JSONL) "
                                 "while it runs")

    spec_cmd = sub.add_parser(
        "spec", help="inspect or validate technique specs")
    spec_sub = spec_cmd.add_subparsers(dest="spec_command", required=True)
    show_cmd = spec_sub.add_parser(
        "show", help="print a registered technique's spec (or a device "
                     "preset, e.g. gtx480) as JSON")
    show_cmd.add_argument("name", type=_spec_or_preset_name)
    validate_cmd = spec_sub.add_parser(
        "validate", help="check a JSON spec file against the schema")
    validate_cmd.add_argument("path", help="spec JSON path")

    return parser


def _technique_name(name: str) -> str:
    """Argparse ``type`` hook: any registered technique name.

    Raising :class:`argparse.ArgumentTypeError` keeps the parse-time
    ``SystemExit`` contract while printing the difflib suggestion
    instead of argparse's raw choices dump.
    """
    if name not in technique_names():
        raise argparse.ArgumentTypeError(
            str(unknown_name_error("technique", name, technique_names())))
    return name


def _spec_or_preset_name(name: str) -> str:
    """Argparse ``type`` hook: a technique name or a device preset.

    ``repro spec show`` serves both registries; the did-you-mean
    suggestion draws from their union so ``gtx48`` points at
    ``gtx480`` and ``warped_gate`` at ``warped_gates``.
    """
    from repro.core.device import device_preset_names
    known = tuple(technique_names()) + device_preset_names()
    if name not in known:
        raise argparse.ArgumentTypeError(
            str(unknown_name_error("spec", name, known)))
    return name


def _parse_benchmarks(raw: Optional[str]) -> Tuple[str, ...]:
    if raw is None:
        return BENCHMARK_NAMES
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    try:
        return validate_names(names, BENCHMARK_NAMES, "benchmark")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _load_spec_file(path: str) -> TechniqueSpec:
    """Parse + schema-validate a technique-spec JSON file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}") \
            from exc
    try:
        spec = TechniqueSpec.from_dict(document)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: invalid spec {path}: {exc}") from exc
    return spec


class _ObsSession:
    """One command's telemetry surface, built from the global flags.

    Owns the :class:`~repro.obs.telemetry.EngineTelemetry` (when any of
    ``--progress`` / ``--engine-events`` / ``--engine-trace`` /
    ``run --profile`` asks for one), the subscribers those flags
    attach, and the parent-side cProfile under ``--profile``.
    :meth:`finish` closes everything and prints where files landed —
    with no flags set, the session is inert and the command runs
    exactly as before.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.telemetry = None
        self.progress = None
        self.event_log = None
        self.trace = None
        self.trace_path = getattr(args, "engine_trace", None)
        self.events_path = getattr(args, "engine_events", None)
        self.profiler: Optional[cProfile.Profile] = None
        self.profile_dir: Optional[str] = None
        self.profile_report: Optional[Path] = None
        self._engines: list = []

        want_bus = bool(getattr(args, "progress", False)
                        or self.trace_path or self.events_path)
        profiling = bool(getattr(args, "profile", False))
        if profiling and args.jobs > 1:
            # Workers dump per-job pstats here; finish() merges them.
            self.profile_dir = tempfile.mkdtemp(prefix="repro-profile-")
        if not want_bus and self.profile_dir is None \
                and not profiling:
            return

        if want_bus or self.profile_dir is not None:
            from repro.obs import (
                EngineTelemetry,
                EngineTraceExporter,
                JsonlEventLog,
                ProgressReporter,
            )
            self.telemetry = EngineTelemetry(
                enabled=want_bus, profile_dir=self.profile_dir)
            if getattr(args, "progress", False):
                self.progress = ProgressReporter() \
                    .attach(self.telemetry.bus)
            if self.events_path:
                self.event_log = JsonlEventLog(self.events_path) \
                    .attach(self.telemetry.bus)
            if self.trace_path:
                self.trace = EngineTraceExporter() \
                    .attach(self.telemetry.bus)
        if profiling:
            from repro.obs.ledger import new_run_id
            root = Path(tempfile.gettempdir()) if args.no_cache \
                else Path(".repro-cache")
            self.profile_report = (root / "profile"
                                   / f"profile-{new_run_id()}.pstats")
            self.profiler = cProfile.Profile()
            self.profiler.enable()

    def bind(self, engine) -> None:
        """Remember an engine so its ledger can note the report path."""
        self._engines.append(engine)
        if self.profile_report is not None:
            engine.ledger_meta["profile_report"] = \
                str(self.profile_report)

    def finish(self) -> None:
        """Stop profiling, flush the relay, close subscribers, report."""
        if self.profiler is not None:
            self.profiler.disable()
        if self.telemetry is not None:
            self.telemetry.flush()
        if self.progress is not None:
            self.progress.close()
        if self.event_log is not None:
            self.event_log.close()
            print(f"wrote {self.events_path} "
                  f"({self.event_log.events_written} events)")
        if self.trace is not None:
            self.trace.write(self.trace_path)
            print(f"wrote {self.trace_path} "
                  f"({len(self.trace.worker_lanes)} worker lane(s))")
        if self.profiler is not None:
            self._write_profile()
        if self.telemetry is not None:
            self.telemetry.close()

    def abort(self) -> None:
        """Tear down quietly (no file writes) after a hard error."""
        if self.profiler is not None:
            self.profiler.disable()
            self.profiler = None
        if self.progress is not None:
            self.progress.close()
            self.progress = None
        if self.event_log is not None:
            self.event_log.close()
            self.event_log = None
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None

    def _write_profile(self) -> None:
        from repro.obs.profiling import (
            aggregate_profiles,
            profile_summary,
            write_profile_report,
        )
        stats, dumps = aggregate_profiles(self.profile_dir,
                                          parent=self.profiler)
        if stats is None or self.profile_report is None:
            return
        write_profile_report(stats, self.profile_report)
        print()
        print(profile_summary(stats))
        print(f"profile report: {self.profile_report} "
              f"(parent + {dumps} worker dump(s))")


def _obs(args: argparse.Namespace) -> _ObsSession:
    """The command's telemetry session (created by :func:`main`)."""
    session = getattr(args, "_obs_session", None)
    if session is None:
        session = _ObsSession(args)
        args._obs_session = session
    return session


def _engine(args: argparse.Namespace):
    """Build the parallel engine the global flags describe."""
    from repro.engine import FaultPolicy, ParallelEngine
    from repro.engine.cache import DEFAULT_CACHE_DIR

    session = _obs(args)
    engine = ParallelEngine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else DEFAULT_CACHE_DIR,
        fast_forward=not args.no_fast_forward,
        policy=FaultPolicy(max_retries=args.max_retries,
                           job_timeout=args.job_timeout,
                           fail_fast=args.fail_fast),
        cache_max_bytes=(int(args.cache_cap_mb * 2 ** 20)
                         if args.cache_cap_mb is not None else None),
        telemetry=session.telemetry)
    session.bind(engine)
    return engine


def _failure_exit(manifests) -> int:
    """Report terminally failed jobs, if any; pick the exit code.

    Returns 0 when every manifest is ok, 3 when the command completed
    a partial grid around failures (the fail-fast abort path exits 2
    from :func:`main` instead).
    """
    failed = [m for m in manifests if not m.ok]
    if not failed:
        return 0
    print()
    print(format_table(
        ("benchmark", "technique", "status", "attempts", "error"),
        [[m.benchmark, m.technique, m.status, m.attempts,
          last_error_line(m.error)[:60]] for m in failed],
        title=f"{len(failed)} job(s) failed; metrics above cover the "
              f"surviving cells"), file=sys.stderr)
    return 3


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(ExperimentSettings(
        seed=args.seed, scale=args.scale,
        benchmarks=_parse_benchmarks(args.benchmarks)),
        engine=_engine(args))


#: Display heading per technique registry group, in print order.
_GROUP_HEADINGS = (
    ("paper", "paper techniques"),
    ("ablation", "ablations"),
    ("user", "user-registered"),
)


def cmd_list(args: argparse.Namespace) -> int:
    """List benchmarks, techniques (grouped, described) and figures."""
    print("benchmarks:")
    for name in BENCHMARK_NAMES:
        print(f"  {name}")
    print("techniques:")
    grouped = techniques_by_group()
    width = max(len(spec.name)
                for specs in grouped.values() for spec in specs)
    for group, heading in _GROUP_HEADINGS:
        specs = grouped.get(group, [])
        if not specs:
            continue
        print(f"  {heading}:")
        for spec in specs:
            line = f"    {spec.name:<{width}}"
            if spec.description:
                line += f"  {spec.description}"
            print(line.rstrip())
    print("figures:")
    for name in sorted(FIGURE_BUILDERS):
        print(f"  {name}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one benchmark under one technique; print headline metrics.

    The technique is either a registered name or, via ``--spec``, a
    JSON spec file — any scheduler × gating-policy × adaptive
    composition runs through the exact same path as the paper's named
    techniques.  ``--emit-events`` / ``--emit-chrome-trace`` watch *the
    requested run only*: it runs in-process on an enabled bus, on the
    same execution path as an unwatched run, so only the exporters
    cost time; the baseline companion goes through the engine and its
    cache as usual.  ``--profile`` prints the provenance manifest of
    every simulation the command performed; the watched run's
    ``simulate`` phase includes its trace build and event export.
    """
    if (args.technique is None) == (args.spec_file is None):
        raise SystemExit(
            "error: give exactly one of a technique name or --spec FILE")
    spec = (_load_spec_file(args.spec_file) if args.spec_file
            else technique_spec(args.technique))
    if args.n_sms > 1:
        return _run_device(args, spec)

    runner = _runner(args)
    manifests: List = []  # the watched run's, ahead of the runner's
    if args.emit_events or args.emit_chrome_trace:
        from repro.core.techniques import run_benchmark
        from repro.engine.jobs import JobRequest, job_manifest
        from repro.obs import ChromeTraceExporter, EventBus, JsonlEventLog
        bus = EventBus(enabled=True)
        event_log = (JsonlEventLog(args.emit_events).attach(bus)
                     if args.emit_events else None)
        chrome_trace = (ChromeTraceExporter().attach(bus)
                        if args.emit_chrome_trace else None)
        job = JobRequest(args.benchmark, spec,
                         sm_config=runner.settings.sm_config,
                         seed=args.seed, scale=args.scale,
                         fast_forward=not args.no_fast_forward)
        t0 = _time.perf_counter()
        result = run_benchmark(job.benchmark, spec,
                               sm_config=job.sm_config, seed=job.seed,
                               scale=job.scale, bus=bus,
                               fast_forward=job.fast_forward)
        manifests.append(job_manifest(
            job, result,
            wall_seconds={"simulate": _time.perf_counter() - t0}))
        if event_log is not None:
            event_log.close()
            print(f"wrote {args.emit_events} "
                  f"({event_log.events_written} events)")
        if chrome_trace is not None:
            chrome_trace.write(args.emit_chrome_trace,
                               end_cycle=result.cycles)
            print(f"wrote {args.emit_chrome_trace}")
    else:
        result = runner.run(args.benchmark, spec)
    base = runner.baseline(args.benchmark)
    int_savings = static_savings(result, ExecUnitKind.INT, spec.gating)
    fp_savings = static_savings(result, ExecUnitKind.FP, spec.gating)
    rows = [
        ("cycles", result.cycles),
        ("ipc", round(result.stats.ipc, 3)),
        ("avg_active_warps", round(result.stats.avg_active_warps, 1)),
        ("normalized_performance",
         round(normalized_performance(base, result), 4)),
        ("int_static_savings", format_fraction(int_savings)),
        ("fp_static_savings", format_fraction(fp_savings)),
        ("l1_miss_rate", round(result.memory.miss_rate, 3)),
    ]
    print(format_table(("metric", "value"), rows,
                       title=f"{args.benchmark} / {spec.name}"))
    if args.profile:
        print()
        print(format_table(
            ("benchmark", "technique", "run_key", "cycles", "cache",
             "build_s", "simulate_s", "cycles/s"),
            [[m.benchmark, m.technique, m.run_key, m.cycles,
              "hit" if m.cache_hit else "miss",
              round(m.wall_seconds.get("build_trace", 0.0), 3),
              round(m.wall_seconds.get("simulate", 0.0), 3),
              f"{m.cycles_per_sec:,.0f}"]
             for m in manifests + runner.manifests],
            title="Run manifests"))
    return 0


def _run_device(args: argparse.Namespace, spec) -> int:
    """``repro run --n-sms N``: one kernel at device scale.

    The kernel's warps are split round-robin over N SMs; the shared
    memory side inflates every SM's DRAM latency by the deterministic
    contention factor before the fan-out.  With ``--jobs > 1`` the
    independent SM parts execute on the parallel engine (results are
    bit-identical to the serial order).  The chip-level table reports
    the Figure 1b aggregation: per-domain static savings summed over
    every SM's gating domains.
    """
    from repro.core.device import MemorySideConfig
    from repro.engine.jobs import load_or_build_kernel
    from repro.sim.gpu import GPU
    from repro.workloads.specs import get_profile

    if args.emit_events or args.emit_chrome_trace:
        raise SystemExit("error: --emit-events/--emit-chrome-trace "
                         "instrument a single SM; drop --n-sms")
    kernel = load_or_build_kernel(args.benchmark, args.seed, args.scale)
    gpu = GPU(args.n_sms, spec,
              dram_latency=get_profile(args.benchmark).dram_latency,
              memory_side=MemorySideConfig(),
              fast_forward=not args.no_fast_forward)
    engine = _engine(args) if args.jobs > 1 else None
    result = gpu.run(kernel, engine=engine)
    breakdown = result.energy_breakdown(bet=spec.gating.bet)
    rows = [
        ("device_cycles", result.cycles),
        ("instructions", result.total_instructions),
        ("sms_used", len(result.sm_results)),
        ("int_static_savings",
         format_fraction(breakdown[ExecUnitKind.INT].static_savings)),
        ("fp_static_savings",
         format_fraction(breakdown[ExecUnitKind.FP].static_savings)),
    ]
    print(format_table(("metric", "value"), rows,
                       title=f"{args.benchmark} / {spec.name} "
                             f"@ {args.n_sms} SMs"))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one paper figure; optionally export CSV/JSON."""
    headers, builder = FIGURE_BUILDERS[args.name]
    runner = _runner(args)
    rows = builder(runner)
    print(format_table(headers, rows, title=args.name))
    if args.csv:
        rows_to_csv(headers, rows, path=args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        rows_to_json(headers, rows, path=args.json, figure=args.name)
        print(f"wrote {args.json}")
    return _failure_exit(runner.manifests)


def _parse_comma_list(raw: Optional[str]) -> Optional[Tuple[str, ...]]:
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",")
                 if part.strip())


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the paper artifact: every figure directory plus the
    tolerance-gated headline comparison.

    Exit codes follow the engine convention: 0 success (headlines in
    band or ``--check`` not requested), 3 when the artifact completed
    but is out of band — any headline FAILed its tolerance — or when
    the grid completed around failed jobs.
    """
    formats = _parse_comma_list(args.formats) or ()
    unknown = [fmt for fmt in formats if fmt not in ("csv", "json", "md")]
    if unknown:
        raise SystemExit(f"error: unknown format(s) "
                         f"{', '.join(sorted(unknown))}; "
                         f"choose from csv, json, md")
    runner = _runner(args)
    try:
        report = generate_artifact(
            runner, args.out,
            figure_subset=_parse_comma_list(args.figure_subset),
            formats=formats, check=args.check)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    for artifact in report.figures:
        print(f"wrote {artifact.directory}/ "
              f"({len(artifact.rows)} rows)")
    print(f"wrote {report.out_dir / 'index.md'}")
    if args.check:
        print(f"wrote {report.out_dir / 'headline.json'}")
        print()
        rows = [[c.metric,
                 c.measured,
                 (f"{c.paper_low:.4g}" if c.paper_low == c.paper_high
                  else f"{c.paper_low:.4g}-{c.paper_high:.4g}"),
                 c.abs_error, c.fail_tol, c.verdict]
                for c in report.checks]
        counts = report.counts
        print(format_table(
            ("metric", "measured", "paper", "error", "fail_tol",
             "verdict"), rows,
            title=f"Headline checks — {report.verdict} "
                  f"({counts['PASS']} pass, {counts['WARN']} warn, "
                  f"{counts['FAIL']} fail)"))
    code = _failure_exit(runner.manifests)
    if args.check and report.verdict == "FAIL":
        return 3
    return code


def cmd_characterize(args: argparse.Namespace) -> int:
    """Print the Figure 5 workload-characterisation tables."""
    runner = _runner(args)
    print(format_table(figures.FIG5A_HEADERS, figures.fig5a_rows(runner),
                       title="Figure 5a: instruction mix"))
    print()
    print(format_table(figures.FIG5B_HEADERS, figures.fig5b_rows(runner),
                       title="Figure 5b: active warps"))
    return _failure_exit(runner.manifests)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a Figure 11 parameter sweep (BET or wakeup delay)."""
    runner = _runner(args)
    sweep = bet_sweep if args.axis == "bet" else wakeup_sweep
    points = sweep(runner)
    title = ("Figure 11a: break-even time" if args.axis == "bet"
             else "Figure 11b: wakeup delay")
    print(format_table(SWEEP_HEADERS, sweep_rows(points), title=title))
    return _failure_exit(runner.manifests)


def cmd_trace(args: argparse.Namespace) -> int:
    """Export one benchmark's generated kernel trace as JSON."""
    from repro.isa.traceio import save_kernel
    from repro.workloads.registry import build_kernel

    kernel = build_kernel(args.benchmark, seed=args.seed,
                          scale=args.scale)
    save_kernel(kernel, args.path)
    print(f"wrote {args.path}: {kernel.n_warps} warps, "
          f"{kernel.total_instructions} instructions")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    """Print a per-benchmark normalised energy breakdown table."""
    from repro.core.techniques import PAPER_TECHNIQUES

    runner = _runner(args)
    rows = []
    for technique in (Technique.BASELINE,) + tuple(PAPER_TECHNIQUES):
        for kind, label in ((ExecUnitKind.INT, "int"),
                            (ExecUnitKind.FP, "fp")):
            norm = runner.energy_breakdown(args.benchmark, technique,
                                           kind).normalized()
            rows.append([technique.value, label, norm.dynamic,
                         norm.overhead, norm.static,
                         norm.dynamic + norm.overhead + norm.static])
    print(format_table(
        ("technique", "unit", "dynamic", "overhead", "static", "total"),
        rows, title=f"Normalised energy breakdown: {args.benchmark} "
                    f"(1.0 = no-gating baseline)"))
    return _failure_exit(runner.manifests)


def cmd_replicate(args: argparse.Namespace) -> int:
    """Rerun the headline table over several seeds (mean +/- sd)."""
    from repro.harness.experiment import ExperimentSettings
    from repro.harness.replication import (
        REPLICATION_HEADERS,
        replicate,
        replication_rows,
    )

    settings = ExperimentSettings(
        scale=args.scale, benchmarks=_parse_benchmarks(args.benchmarks))
    failure_log: list = []
    results = replicate(settings, seeds=tuple(range(args.seeds)),
                        engine=_engine(args), failure_log=failure_log)
    print(format_table(REPLICATION_HEADERS, replication_rows(results),
                       title=f"Headline metrics over {args.seeds} seeds"))
    return _failure_exit(failure_log)


def _format_stamp(value: object) -> str:
    try:
        return _time.strftime("%Y-%m-%d %H:%M:%S",
                              _time.localtime(float(value)))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "?"


def _ledger_root(args: argparse.Namespace) -> Path:
    from repro.engine.cache import DEFAULT_CACHE_DIR
    from repro.obs.ledger import ledger_dir_for

    return ledger_dir_for(DEFAULT_CACHE_DIR)


def cmd_runs(args: argparse.Namespace) -> int:
    """Query the run ledger: ``runs list`` / ``runs show <run>``."""
    from repro.obs.ledger import list_runs, load_run, summarize_run

    root = _ledger_root(args)
    if args.runs_command == "list":
        # The limit is pushed into list_runs: only the newest N ledger
        # files are parsed, so listing stays O(limit) as runs pile up.
        summaries = list_runs(root, limit=args.limit)
        if not summaries:
            print(f"no recorded runs under {root}")
            return 0
        rows = []
        for summary in summaries:
            counts = summary.get("counts", {})
            bad = sum(n for status, n in counts.items()
                      if status != "ok")
            rows.append([
                summary.get("run_id", "?"),
                _format_stamp(summary.get("created_at")),
                summary.get("job_count", 0),
                counts.get("ok", 0), bad,
                summary.get("cache_hits", 0),
                "yes" if summary.get("finished") else "NO",
            ])
        print(format_table(
            ("run", "started", "jobs", "ok", "bad", "cache_hits",
             "finished"),
            rows, title=f"Run ledger: {root}"))
        return 0

    try:
        records = load_run(root, args.run)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.as_json:
        print(json.dumps(records, indent=2))
        return 0
    summary = summarize_run(records)
    print(f"run {summary.get('run_id', args.run)}  "
          f"started {_format_stamp(summary.get('created_at'))}  "
          f"workers={summary.get('engine_jobs', '?')}  "
          f"finished={'yes' if summary.get('finished') else 'NO'}")
    jobs = [r for r in records if r.get("record") == "job"]
    print(format_table(
        ("#", "benchmark", "technique", "spec_hash", "seed", "status",
         "attempts", "worker", "cache", "cycles", "wall_s", "error"),
        [[j.get("index"), j.get("benchmark"), j.get("technique"),
          j.get("spec_hash"), j.get("seed"), j.get("status"),
          j.get("attempts"),
          j.get("worker") or "-",
          "hit" if j.get("cache_hit") else "miss",
          j.get("cycles"), j.get("wall_seconds"),
          str(j.get("error", ""))[:40]] for j in jobs],
        title=f"{len(jobs)} job(s)"))
    footer = next((r for r in records if r.get("record") == "end"), None)
    if footer and footer.get("profile_report"):
        print(f"profile report: {footer['profile_report']}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service as an HTTP daemon.

    The daemon wraps the same engine the batch commands build from the
    global flags (``--jobs``, cache, fault policy, telemetry), so a
    served job and a local ``repro run`` of the same spec produce the
    same digest — and share the same persistent cache.  Ctrl-C drains
    gracefully: the listener closes first, then in-flight jobs finish.
    """
    import asyncio

    from repro.service.api import serve
    from repro.service.core import SimulationService

    service = SimulationService(engine=_engine(args))

    def ready(port: int) -> None:
        print(f"repro service listening on http://{args.host}:{port}",
              flush=True)

    try:
        asyncio.run(serve(service, host=args.host, port=args.port,
                          max_pending=args.max_pending, ready=ready))
    except KeyboardInterrupt:
        print("shutting down (drained in-flight jobs)", file=sys.stderr)
    finally:
        service.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service; optionally stream + wait.

    Exit codes mirror ``repro run``: 0 when the job settled ok (or
    ``--no-wait`` was given), 2 when it terminally failed.
    """
    from repro.service.client import ServiceClient, ServiceError

    if (args.technique is None) == (args.spec_file is None):
        raise SystemExit(
            "error: give exactly one of a technique name or --spec FILE")
    request: dict = {"benchmark": args.benchmark,
                     "seed": args.seed, "scale": args.scale}
    if args.spec_file:
        request["spec"] = _load_spec_file(args.spec_file).to_dict()
    else:
        request["technique"] = args.technique
    if args.no_fast_forward:
        request["fast_forward"] = False

    client = ServiceClient(args.host, args.port)
    try:
        doc = client.submit(request)
    except (ServiceError, OSError) as exc:
        raise SystemExit(f"error: submit to {args.host}:{args.port} "
                         f"failed: {exc}") from exc
    job_id = str(doc["job_id"])
    dedup = " (deduped onto an existing job)" if doc.get("deduped") else ""
    print(f"job {job_id}  {doc.get('label')}  "
          f"state={doc.get('state')}{dedup}")
    if args.stream:
        for record in client.stream(job_id):
            print(json.dumps(record, default=str))
    if args.no_wait:
        return 0
    try:
        result = client.wait(job_id, timeout=args.wait)
    except (ServiceError, OSError, TimeoutError) as exc:
        raise SystemExit(f"error: waiting on job {job_id} failed: "
                         f"{exc}") from exc
    rows = [
        ("state", result.get("state")),
        ("digest", result.get("digest")),
        ("cycles", result.get("cycles")),
        ("attempts", result.get("attempts")),
    ]
    if result.get("error"):
        rows.append(("error", last_error_line(str(result["error"]))[:60]))
    print(format_table(("field", "value"), rows,
                       title=f"job {job_id}: {result.get('label')}"))
    return 0 if result.get("state") == "ok" else 2


def cmd_spec(args: argparse.Namespace) -> int:
    """Inspect (``show``) or check (``validate``) technique specs."""
    if args.spec_command == "show":
        if args.name in technique_names():
            spec = technique_spec(args.name)
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            print(f"spec_hash: {spec.spec_hash()}", file=sys.stderr)
            return 0
        from repro.core.device import device_preset
        preset = device_preset(args.name)
        print(json.dumps(preset.to_dict(), indent=2, sort_keys=True))
        return 0
    spec = _load_spec_file(args.path)  # exits non-zero with the reason
    print(f"{args.path}: ok — technique {spec.name!r}, "
          f"spec_hash {spec.spec_hash()}")
    return 0


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "figure": cmd_figure,
    "figures": cmd_figures,
    "characterize": cmd_characterize,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "energy": cmd_energy,
    "replicate": cmd_replicate,
    "runs": cmd_runs,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "spec": cmd_spec,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success; 2 a job failure aborted the command (the
    default strict ``run`` path, or any command under ``--fail-fast``);
    3 the command completed a partial grid around failed jobs.
    """
    args = build_parser().parse_args(argv)
    session = _obs(args)
    try:
        code = COMMANDS[args.command](args)
    except JobFailedError as exc:
        # Flush telemetry first: the partial trace/ledger is exactly
        # what a failure post-mortem wants.
        session.finish()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        session.abort()
        raise
    session.finish()
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
