"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` wraps public functions and methods of the program
(module attributes and class attributes, restored by
:meth:`Tracer.uninstall`) so each call records a :class:`Span`: name,
start, end, parent span and op id.  Spans and counts are kept in memory
and written out once, when the run ends.

Self time is a span's duration minus the part of its interval covered
by its children (:func:`self_times`); a layer's per-op figure sums the
self time of its spans within one op.  What the wrappers themselves
cost is recorded too (:data:`COST`), so a traced run states its own
overhead without a second, untraced run.

The wrapping is installed by :func:`install_layers` in whichever
process runs the layer: the benchmark process, the ``repro serve``
process (through ``perfbench/serve_traced.py``) and, by inheritance
across ``fork``, the engine's pool workers.  Worker spans travel back
to the parent on the part results (:func:`adopt_worker_spans`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Attribute a worker-side part result carries its spans and counts on.
WORKER_ATTR = "_perfbench_trace"
#: Count name of the seconds the tracer itself spent inside an op.
COST = "trace.cost_s"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and count recorder, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(op, name, value)`` samples: sizes, mode cycle counts.
        self.counts: List[Tuple[str, str, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._restore: List[Callable[[], None]] = []

    # -- ops and spans --------------------------------------------------

    @property
    def op(self) -> str:
        return getattr(self._local, "op", "")

    @op.setter
    def op(self, value: str) -> None:
        self._local.op = value

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, time.perf_counter(), 0.0,
                    stack[-1].sid if stack else None,
                    op if op is not None
                    else (stack[-1].op if stack else self.op))
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, value: float, op: Optional[str] = None) -> None:
        with self._lock:
            self.counts.append((self.op if op is None else op, name, value))

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             op_of: Optional[Callable[..., str]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``op_of(*args)`` names the op for a call that starts one (the
        service tags a job by its label); ``after(span, result, *args)``
        runs once the call returned, inside the span's lifetime but
        after its end time was taken.

        The wrapper's own time — the call's wall time minus the span —
        is recorded as a :data:`COST` count of the span's op: what
        tracing added to the op.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = self.begin(name, op_of(*args) if op_of else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            self.end(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            self.count(COST, time.perf_counter() - entered - span.duration,
                       span.op)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- export ---------------------------------------------------------

    def mark(self) -> Tuple[int, int]:
        with self._lock:
            return len(self.spans), len(self.counts)

    def pop_since(self, mark: Tuple[int, int],
                  ) -> Tuple[List[Span], List[Tuple[str, str, float]]]:
        """Remove and return what was recorded after ``mark``."""
        with self._lock:
            spans, counts = self.spans[mark[0]:], self.counts[mark[1]:]
            del self.spans[mark[0]:], self.counts[mark[1]:]
            return spans, counts

    def merge(self, spans: Iterable[dict], counts: Iterable[list],
              op: Optional[str] = None) -> None:
        """Adopt spans recorded in another process, renumbered."""
        renumber: Dict[int, int] = {}
        with self._lock:
            for doc in spans:
                renumber[doc["sid"]] = self._next
                self._next += 1
            for doc in spans:
                parent = doc["parent"]
                self.spans.append(Span(
                    renumber[doc["sid"]], doc["name"], doc["start"],
                    doc["end"], renumber.get(parent) if parent is not None
                    else None, op if op is not None else doc["op"]))
            for c_op, name, value in counts:
                self.counts.append((op if op is not None else c_op,
                                    name, value))

    def dump(self) -> dict:
        with self._lock:
            return {"spans": [asdict(s) for s in self.spans],
                    "counts": [list(c) for c in self.counts]}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump()), encoding="utf-8")


# ----------------------------------------------------------------------
# self time and per-op aggregation
# ----------------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children
    (from threads sharing a parent) count once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.duration - covered
    return out


def per_op(spans: Iterable[Span], name: str, own: Dict[int, float],
           ) -> Dict[str, float]:
    """Summed self time (seconds) of ``name`` spans, per op."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span.name == name:
            totals[span.op] = totals.get(span.op, 0.0) + own[span.sid]
    return totals


# ----------------------------------------------------------------------
# the layers' entry points
# ----------------------------------------------------------------------

def _record_modes(tracer: Tracer) -> Callable:
    """``after`` hook of ``StreamingMultiprocessor.run``: mode counts."""

    def after(span: Span, result, sm, *args, **kwargs) -> None:
        forwarder = getattr(sm, "_forwarder", None)
        kernel = getattr(sm, "_kernel_core", None) \
            or getattr(forwarder, "kernel", None)
        kernel_cycles = getattr(kernel, "cycles", 0)
        skipped = getattr(forwarder, "skipped_cycles", 0)
        op = span.op
        tracer.count("sim.cycles", result.cycles, op)
        tracer.count("sim.kernel_cycles", kernel_cycles, op)
        tracer.count("sim.skip_cycles", skipped, op)
        tracer.count("sim.realstep_cycles",
                     result.cycles - kernel_cycles - skipped, op)
        tracer.count("sim.plans", getattr(forwarder, "plans", 0), op)
        tracer.count("sim.skips", getattr(forwarder, "skips", 0), op)
        tracer.count("sim.dense_windows",
                     getattr(forwarder, "dense_windows", 0), op)
        tracer.count("sim.planner_overhead_cycles",
                     sm.stats.planner_overhead_cycles, op)

    return after


def _record_cache_get(tracer: Tracer) -> Callable:
    def after(span: Span, value, cache, group, key) -> None:
        hit = value is not None
        span.name = f"engine.cache_get.{group}"
        if group == "traces":
            tracer._local.trace_hit = hit
        tracer.count(f"engine.{group}_cache_get", 1, span.op)
        tracer.count(f"engine.{group}_cache_hit", int(hit), span.op)
        if hit and group == "results":
            tracer.count("engine.result_entry_bytes",
                         cache.path(group, key).stat().st_size, span.op)

    return after


def _record_cache_put(span: Span, _none, cache, group, key, value) -> None:
    span.name = f"engine.cache_put.{group}"


def _keep_map_items(tracer: Tracer) -> Callable:
    """Keep the last mapped items, to size their pickles after the op."""

    def after(span: Span, results, engine, fn, items) -> None:
        tracer._local.map_items = items

    return after


def take_map_items(tracer: Tracer) -> list:
    """The items of the last ``ParallelEngine.map`` on this thread."""
    return tracer._local.__dict__.pop("map_items", [])


def _classify_trace(tracer: Tracer) -> Callable:
    """Name a ``load_or_build_kernel`` span a trace load or build."""

    def after(span: Span, kernel, *args, **kwargs) -> None:
        # Set by the trace-group cache get inside this call, if any; a
        # call without a cache (or with a miss) generated the trace.
        hit = getattr(tracer._local, "trace_hit", False)
        tracer._local.trace_hit = False
        span.name = "workloads.trace_load" if hit \
            else "workloads.trace_build"

    return after


def install_layers(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every layer entry point the per-layer metrics time.

    ``serve=True`` (inside ``repro serve``) also tags each service
    call's op with its job label, which the benchmark maps back to its
    op ids.
    """
    from repro.core import techniques
    from repro.core.spec import TechniqueSpec
    from repro.engine import cache, jobs, pool
    from repro.harness.experiment import ExperimentRunner
    from repro.obs import ledger, manifest
    from repro.service import core
    from repro.sim import gpu, sm

    label_op = (lambda svc, ticket, *a, **k: ticket.label) if serve \
        else None
    request_op = (lambda svc, request, *a, **k: request.label()) \
        if serve else None

    tracer.wrap(core.SimulationService, "submit", "service.core",
                op_of=request_op)
    tracer.wrap(core.SimulationService, "execute", "service.core",
                op_of=label_op)
    tracer.wrap(core.SimulationService, "prefetch", "service.core")
    tracer.wrap(ExperimentRunner, "run", "harness.runner")
    tracer.wrap(ExperimentRunner, "prefetch", "harness.runner")
    tracer.wrap(pool.ParallelEngine, "run_sim_jobs", "engine.run_sim_jobs")
    tracer.wrap(pool.ParallelEngine, "map", "engine.map",
                after=_keep_map_items(tracer))
    tracer.wrap(cache.RunCache, "get", "engine.cache_get",
                after=_record_cache_get(tracer))
    tracer.wrap(cache.RunCache, "put", "engine.cache_put",
                after=_record_cache_put)
    tracer.wrap(jobs, "load_or_build_kernel", "workloads.trace",
                after=_classify_trace(tracer))
    for module in (jobs, core, techniques):
        tracer.wrap(module, "build_sm", "core.build_sm")
    tracer.wrap(TechniqueSpec, "spec_hash", "core.spec_hash")
    # The service digests a result lazily, when an HTTP handler thread
    # builds the result document; the ticket names the op.
    tracer.wrap(core.JobTicket, "digest", "core.result_digest",
                op_of=(lambda ticket: ticket.label) if serve else None)
    for module in (manifest, jobs, core):
        tracer.wrap(module, "config_hash", "obs.config_hash")
    for method in ("__init__", "job", "close"):
        tracer.wrap(ledger.LedgerWriter, method, "obs.ledger")
    tracer.wrap(sm.StreamingMultiprocessor, "run", "sim.run",
                after=_record_modes(tracer))
    tracer.wrap(gpu, "split_kernel", "sim.split_kernel")
    _wrap_worker_parts(tracer, jobs)


def _wrap_worker_parts(tracer: Tracer, jobs) -> None:
    """Ship a pool worker's spans back on the part result it returns.

    Runs in the worker (inherited by ``fork``): the spans recorded
    while the part ran are attached to the result and dropped from the
    worker's copy of the tracer.  Packing them is tracing cost too.
    """
    original = jobs.execute_sm_part

    @functools.wraps(original)
    def execute_sm_part(job):
        mark = tracer.mark()
        result = original(job)
        packing = time.perf_counter()
        spans, counts = tracer.pop_since(mark)
        spans = [asdict(s) for s in spans]
        counts = [list(c) for c in counts]
        counts.append(["", COST, time.perf_counter() - packing])
        setattr(result, WORKER_ATTR, (spans, counts))
        return result

    jobs.execute_sm_part = execute_sm_part
    tracer._restore.append(lambda: setattr(jobs, "execute_sm_part",
                                           original))


def adopt_worker_spans(tracer: Tracer, results: Iterable, op: str) -> None:
    """Move worker spans off part results into the parent tracer."""
    for result in results:
        shipped = result.__dict__.pop(WORKER_ATTR, None)
        if shipped is not None:
            tracer.merge(shipped[0], shipped[1], op=op)
