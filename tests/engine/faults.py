"""Fault-injection helpers for the engine's fault-tolerance tests.

Deliberately *not* ``test_``-prefixed: pytest imports it as a plain
module, and the callables here must be picklable (top-level, frozen
dataclasses) so a ``ProcessPoolExecutor`` can ship them to workers.

The injection seam is :meth:`ParallelEngine.run_sim_jobs`'s ``worker=``
argument (or plain ``map_outcomes``): a :class:`FaultyWorker` wraps the
real callable and consults a :class:`FaultPlan` keyed by item — crash
deterministically, crash only on the first attempt (via an on-disk
marker, so it works across worker processes), hard-exit the worker
(``BrokenProcessPool``), or hang past any timeout.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Tuple

from repro.engine.cache import MAGIC, RunCache
from repro.engine.jobs import execute_job
from repro.engine.pool import ParallelEngine


class InjectedCrash(RuntimeError):
    """The deterministic failure a :class:`FaultyWorker` raises."""


def square(x: int) -> int:
    """Trivial picklable payload for generic ``map`` tests."""
    return x * x


def identity_key(item: Any) -> Any:
    """Default plan key: the item itself."""
    return item


def sim_job_key(job) -> str:
    """Plan key for :class:`~repro.engine.jobs.JobRequest` items."""
    return f"{job.benchmark}/{job.spec.name}/s{job.seed}"


def _slug(key: Any) -> str:
    return str(key).replace("/", "_").replace(" ", "_")


@dataclass(frozen=True)
class FaultPlan:
    """Which plan keys misbehave, and how.

    Attributes:
        crash: Keys that raise :class:`InjectedCrash` on every attempt.
        crash_once: Keys that raise only on their first attempt; the
            attempt is recorded as a marker file under ``marker_dir``
            (required for these), which makes the "first" global across
            worker processes.
        exit: Keys whose worker process hard-exits (``os._exit``) —
            the pool observes a :class:`BrokenProcessPool`.
        hang: Keys that sleep ``hang_seconds`` before returning.
        hang_seconds: How long a hanging key sleeps.
        marker_dir: Directory for ``crash_once`` markers.
    """

    crash: Tuple = ()
    crash_once: Tuple = ()
    exit: Tuple = ()
    hang: Tuple = ()
    hang_seconds: float = 600.0
    marker_dir: str = ""


@dataclass(frozen=True)
class FaultyWorker:
    """Picklable wrapper that injects a :class:`FaultPlan` around ``fn``."""

    fn: Callable
    plan: FaultPlan = field(default_factory=FaultPlan)
    key: Callable = identity_key

    def __call__(self, item: Any) -> Any:
        key = self.key(item)
        if key in self.plan.hang:
            time.sleep(self.plan.hang_seconds)
        if key in self.plan.exit:
            os._exit(23)  # skips cleanup: the pool sees a dead worker
        if key in self.plan.crash:
            raise InjectedCrash(f"injected crash on {key!r}")
        if key in self.plan.crash_once:
            marker = Path(self.plan.marker_dir) / f"{_slug(key)}.crashed"
            if not marker.exists():
                marker.touch()
                raise InjectedCrash(f"injected first-try crash on {key!r}")
        return self.fn(item)


@dataclass(frozen=True)
class CountingWorker:
    """Picklable wrapper that records every invocation on disk.

    Each call drops one uniquely-named marker file under
    ``marker_dir`` (named after the item's plan key), so execution
    counts survive process-pool boundaries — the observable proof that
    single-flight dedupe ran a cell exactly once.
    """

    fn: Callable
    marker_dir: str
    key: Callable = identity_key

    def __call__(self, item: Any) -> Any:
        import tempfile
        slug = _slug(self.key(item))
        fd, _name = tempfile.mkstemp(dir=self.marker_dir,
                                     prefix=f"{slug}.", suffix=".ran")
        os.close(fd)
        return self.fn(item)


def count_executions(marker_dir, key: Any) -> int:
    """How many times :class:`CountingWorker` ran items with ``key``."""
    slug = _slug(key)
    return sum(1 for name in os.listdir(marker_dir)
               if name.startswith(f"{slug}.") and name.endswith(".ran"))


class FaultyEngine(ParallelEngine):
    """A :class:`ParallelEngine` whose sim jobs run under a fault plan.

    Lets harness-level tests (runner, sweeps, replication) exercise the
    failure paths without reaching for the ``worker=`` seam themselves.
    """

    def __init__(self, plan: FaultPlan, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.plan = plan

    def run_sim_jobs(self, jobs, policy=None, worker=None):
        if worker is None:
            worker = FaultyWorker(
                partial(execute_job, cache_dir=self.cache_dir,
                        cache_max_bytes=self.cache_max_bytes),
                self.plan, key=sim_job_key)
        return super().run_sim_jobs(jobs, policy=policy, worker=worker)


def corrupt_cache_entry(cache: RunCache, group: str, key: str,
                        mode: str = "truncate") -> Path:
    """Damage one stored entry in place; returns its path.

    Modes: ``truncate`` (cut the blob in half), ``garbage`` (replace
    with bytes that are not even a header), ``flip`` (flip one payload
    bit, keeping the stored checksum stale).
    """
    path = cache.path(group, key)
    blob = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(blob[:max(len(blob) // 2, 1)])
    elif mode == "garbage":
        path.write_bytes(b"not a cache entry at all")
    elif mode == "flip":
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF  # last payload byte; header stays intact
        assert bytes(flipped[:len(MAGIC)]) == MAGIC
        path.write_bytes(bytes(flipped))
    else:  # pragma: no cover - helper misuse
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def plant_stale_tmp(root, group: str = "results",
                    age_seconds: float = 7200.0) -> Path:
    """Simulate a worker killed mid-write: an old orphaned ``.tmp``."""
    group_dir = Path(root) / group
    group_dir.mkdir(parents=True, exist_ok=True)
    orphan = group_dir / ".orphan.000000.tmp"
    orphan.write_bytes(b"partial write from a killed worker")
    stamp = time.time() - age_seconds
    os.utime(orphan, (stamp, stamp))
    return orphan
