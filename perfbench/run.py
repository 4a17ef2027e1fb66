"""The repository benchmark: the paper grid served cold, launched on a
gtx480, and re-read warm.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 \\
        --trace 0

Workloads (closed loops, one op in flight; see perfbench/README.md):

* ``serve-cold``    — each grid cell submitted to ``repro serve --jobs 1``
  with a fresh cache, waiting for the result document;
* ``device-gtx480`` — each cell as one 15-SM ``gtx480`` launch fanned
  over a 2-worker ``ParallelEngine``;
* ``grid-warm``     — each op a fresh ``ExperimentRunner`` reading all
  108 cells from a cache filled during set-up.

Every op's result digest is checked, outside its timed span, against
the serial-oracle references in ``perfbench/references/grid.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of the run, traced instead).
The line before it is the host and build fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pickle
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import calibrate
import grid
import metrics
import tracing
from metrics import OpRecord, RunRecord

WORK = grid.ROOT / ".perfbench-work"
SETUP_REPEATS = 3
RESULT_WAIT = 150.0


# ----------------------------------------------------------------------
# host and build fingerprint
# ----------------------------------------------------------------------

def fingerprint() -> Dict[str, object]:
    """What a result must be compared under: host, interpreter, build."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.sim import kernel, scoreboard
    compiled = {m.__name__: not m.__file__.endswith(".py")
                for m in (kernel, scoreboard)}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mypyc_compiled": compiled,
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON", ""),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid or 'self'}")


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve --jobs 1`` process with its own empty cache."""

    def __init__(self, directory: Path, traced: bool) -> None:
        from repro.service.client import ServiceClient

        directory.mkdir(parents=True)
        self.spans_path = directory / "spans.json" if traced else None
        program = ([str(grid.HERE / "serve_traced.py"),
                    str(self.spans_path)] if traced else ["-m", "repro"])
        env = dict(os.environ, PYTHONPATH=str(grid.SRC))
        self._log = open(directory / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *program, "--jobs", "1", "serve",
             "--port", "0"],
            cwd=directory, env=env, stdout=subprocess.PIPE,
            stderr=self._log)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.client = ServiceClient("127.0.0.1", port,
                                    timeout=RESULT_WAIT + 30)

    def stop(self) -> Optional[dict]:
        """SIGINT (graceful drain), wait, and return the spans if traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.spans_path is not None and self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return None


def _serve_one(client, benchmark: str, technique: str, trace_seed: int):
    """Submit one cell and wait for its result document."""
    status = client.submit({"benchmark": benchmark, "technique": technique,
                            "seed": trace_seed, "scale": grid.SCALE})
    return client.result(status["job_id"], wait=RESULT_WAIT)


def serve_cold(seed: int, seconds: float, work: Path, refs: dict,
               tracer: Optional[tracing.Tracer],
               setup_repeats: int) -> RunRecord:
    from repro.service.client import ServiceClient, ServiceError

    if tracer is not None:
        tracer.wrap(ServiceClient, "submit", "service.submit")
    traced = tracer is not None
    setup: List[float] = []
    samples: List[float] = []
    setup_ok = True
    labels: Dict[str, str] = {}

    def retire(server: Server) -> float:
        rss = peak_rss_mb(server.proc.pid)
        doc = server.stop()
        if doc is not None and tracer is not None:
            for span in doc["spans"]:
                span["op"] = labels.get(span["op"], "server")
            tracer.merge(doc["spans"],
                         [[labels.get(c[0], "server"), c[1], c[2]]
                          for c in doc["counts"]])
        return rss

    server = None
    try:
        for i in range(setup_repeats):
            if server is not None:
                retire(server)
            started = time.perf_counter()
            server = Server(work / f"setup{i}", traced)
            server.client.health()
            doc = _serve_one(server.client, *grid.WARMUP_CELL)
            setup.append(time.perf_counter() - started)
            setup_ok = setup_ok and doc["state"] == "ok"
        ops: List[OpRecord] = []
        rss = 0.0
        start = time.perf_counter()
        passes = 0
        while True:
            if passes:  # a later pass needs a cold server again
                rss = max(rss, retire(server))
                server = Server(work / f"pass{passes}", traced)
            for op in grid.op_stream(seed, grid.benchmarks()):
                op_id = f"{passes}:{op.index}"
                labels[f"{op.benchmark}/{op.technique}/s{op.trace_seed}"] \
                    = op_id
                if tracer is not None:
                    tracer.op = op_id
                began = time.perf_counter()
                try:
                    doc = _serve_one(server.client, op.benchmark,
                                     op.technique, op.trace_seed)
                except (ServiceError, OSError) as exc:
                    sys.stderr.write(f"op {op_id} {op.key}: {exc}\n")
                    ops.append(OpRecord(op_id, time.perf_counter() - began,
                                        0, False))
                    samples.append(calibrate.sample())
                    continue
                latency = time.perf_counter() - began
                received = time.time()
                digest = doc["digest"] if doc["state"] == "ok" else None
                ok = not grid.failed_ops([op], {op.index: digest},
                                         refs["single"])
                ops.append(OpRecord(op_id, latency, doc.get("cycles", 0), ok, {
                    "queue_wait": doc["started_at"] - doc["created_at"],
                    "result_doc": received - doc["finished_at"],
                }))
                samples.append(calibrate.sample())
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        rss = max(rss, retire(server))
        server = None
    finally:
        if server is not None:
            server.stop()
        if tracer is not None:
            tracer.uninstall()
    return RunRecord(setup, ops, rss, samples, setup_ok, tracer)


# ----------------------------------------------------------------------
# device-gtx480
# ----------------------------------------------------------------------

def _pool_rss_mb() -> float:
    return max([peak_rss_mb()] + [peak_rss_mb(p.pid) for p in
                                  multiprocessing.active_children()])


def device_gtx480(seed: int, seconds: float, work: Path, refs: dict,
                  tracer: Optional[tracing.Tracer],
                  setup_repeats: int) -> RunRecord:
    from repro.core.digest import device_result_digest
    from repro.engine import ParallelEngine, jobs
    from repro.sim.gpu import GPU
    from repro.workloads.specs import get_profile

    names = grid.benchmarks()
    trace_seed = grid.trace_seed_for(seed)

    def launch(engine, kernels, benchmark, technique):
        gpu = GPU.from_preset(grid.DEVICE_PRESET, technique,
                              dram_latency=get_profile(benchmark)
                              .dram_latency, fast_forward=True)
        return gpu.run(kernels[benchmark], engine=engine)

    if tracer is not None:
        tracing.install_layers(tracer)
        tracer.op = "setup"
    setup: List[float] = []
    samples: List[float] = []
    setup_ok = True
    engine = None
    try:
        for _ in range(setup_repeats):
            # Drop the previous set-up first: the peak memory is then
            # that of one set-up, whatever the number of repeats.
            if engine is not None:
                engine.close()
            engine = kernels = warm = None
            started = time.perf_counter()
            engine = ParallelEngine(jobs=metrics.POOL_JOBS, cache_dir=None,
                                    ledger=False)
            # Looked up on the module, so a traced run sees the wrapper.
            # Not memoised: each set-up builds all 18 kernels again.
            kernels = {b: jobs.load_or_build_kernel(b, trace_seed,
                                                    grid.SCALE)
                       for b in names}
            warm = launch(engine, kernels, *grid.WARMUP_CELL[:2])
            setup.append(time.perf_counter() - started)
            setup_ok = setup_ok and device_result_digest(warm) == \
                refs["device"].get(grid.cell_key(trace_seed,
                                                 *grid.WARMUP_CELL[:2]))
            if tracer is not None:
                tracing.adopt_worker_spans(tracer, warm.sm_results, "setup")
        ops: List[OpRecord] = []
        start = time.perf_counter()
        passes = 0
        while True:
            for op in grid.op_stream(seed, names):
                op_id = f"{passes}:{op.index}"
                if tracer is not None:
                    tracer.op = op_id
                began = time.perf_counter()
                result = launch(engine, kernels, op.benchmark, op.technique)
                latency = time.perf_counter() - began
                ok = not grid.failed_ops(
                    [op], {op.index: device_result_digest(result)},
                    refs["device"])
                ops.append(OpRecord(
                    op_id, latency,
                    sum(r.cycles for r in result.sm_results), ok))
                if tracer is not None:
                    tracing.adopt_worker_spans(tracer, result.sm_results,
                                               op_id)
                    tracer.count("engine.part_pickle_bytes",
                                 sum(len(pickle.dumps(item)) for item in
                                     tracing.take_map_items(tracer)),
                                 op_id)
                samples.append(calibrate.sample())
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        rss = _pool_rss_mb()
    finally:
        if engine is not None:
            engine.close()
        if tracer is not None:
            tracer.uninstall()
    return RunRecord(setup, ops, rss, samples, setup_ok, tracer)


# ----------------------------------------------------------------------
# grid-warm
# ----------------------------------------------------------------------

def grid_warm(seed: int, seconds: float, work: Path, refs: dict,
              tracer: Optional[tracing.Tracer]) -> RunRecord:
    from repro.core.digest import result_digest
    from repro.engine import ParallelEngine
    from repro.harness.experiment import ExperimentRunner, ExperimentSettings

    stream = grid.op_stream(seed, grid.benchmarks())
    cells = [(op.benchmark, op.technique) for op in stream]
    settings = ExperimentSettings(seed=grid.trace_seed_for(seed),
                                  scale=grid.SCALE)
    cache_dir = str(work / "cache")

    # Re-pickling a result loaded from the same cache entry gives the
    # same bytes, so a result whose pickle equals that of an already
    # verified one has its digest too (~10x cheaper than digesting).
    verified: Dict[str, bytes] = {}

    def digest_of(op: grid.Op, result) -> str:
        blob = pickle.dumps(result)
        if verified.get(op.key) == blob:
            return refs["single"][op.key]
        digest = result_digest(result)
        if digest == refs["single"].get(op.key):
            verified[op.key] = blob
        return digest

    def verify(runner, results) -> bool:
        hits = [m.cache_hit for m in runner.manifests]
        digests = {op.index: digest_of(op, r)
                   for op, r in zip(stream, results)}
        return (len(hits) == len(stream) and all(hits)
                and not grid.failed_ops(stream, digests, refs["single"]))

    if tracer is not None:
        tracing.install_layers(tracer)
        tracer.op = "setup"
    try:
        # The fill simulates the whole grid (~18 s), so it runs once.
        started = time.perf_counter()
        with ParallelEngine(jobs=metrics.POOL_JOBS,
                            cache_dir=cache_dir) as engine:
            runner = ExperimentRunner(settings, engine=engine)
            runner.prefetch(cells)
        setup = [time.perf_counter() - started]
        setup_ok = not runner.failures
        samples: List[float] = []
        ops: List[OpRecord] = []
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds or not ops:
            op_id = str(index)
            if tracer is not None:
                tracer.op = op_id
            began = time.perf_counter()
            with ParallelEngine(jobs=1, cache_dir=cache_dir) as engine:
                runner = ExperimentRunner(settings, engine=engine)
                runner.prefetch(cells)
                results = [runner.run(b, t) for b, t in cells]
            latency = time.perf_counter() - began
            ops.append(OpRecord(op_id, latency,
                                sum(r.cycles for r in results),
                                verify(runner, results)))
            # Each op allocates ~108 result graphs; collecting here
            # makes every op start from the same collector state, so
            # where its pauses fall does not depend on earlier ops
            # (without it p90 wandered by 20% between runs).
            gc.collect()
            samples.append(calibrate.sample())
            index += 1
        rss = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return RunRecord(setup, ops, rss, samples, setup_ok, tracer)


WORKLOADS: Dict[str, Callable[..., RunRecord]] = {
    "serve-cold": serve_cold,
    "device-gtx480": device_gtx480,
    "grid-warm": grid_warm,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, refs: dict,
                 traced: bool) -> RunRecord:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if traced else None
    # grid-warm sets up once: its set-up simulates the whole grid.  A
    # traced run reports no set-up time, so it sets up once too.
    repeats = {} if name == "grid-warm" else {
        "setup_repeats": 1 if traced else SETUP_REPEATS}
    try:
        return WORKLOADS[name](seed, seconds, work, refs, tracer, **repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    grid.import_repro()
    refs = grid.load_references()
    host = fingerprint()

    run = run_workload(args.workload, args.seed, args.seconds, refs,
                       traced=bool(args.trace))
    host["host_factor"] = run.host_factor
    host["raw"] = metrics.end_to_end(run, normalise=False)
    if args.trace:
        values = metrics.per_layer(run)
        units = metrics.PER_LAYER
        report = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(json.dumps({
            "fingerprint": host,
            "end_to_end": metrics.end_to_end(run),
            "per_layer": values,
            **run.tracer.dump(),
        }), encoding="utf-8")
    else:
        values = metrics.end_to_end(run)
        units = metrics.END_TO_END
    print("fingerprint " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and run.setup_ok,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
