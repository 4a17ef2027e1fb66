"""Run provenance: what exactly ran, and how fast.

A :class:`RunManifest` pins one simulation to its exact inputs — the
benchmark, technique, seed, scale and the run key hashed over every
input — and records the wall-clock cost per phase plus the simulated
cycles/second throughput.  The memoising
:class:`~repro.harness.experiment.ExperimentRunner` writes one manifest
per *uncached* run, which gives every future performance PR a measured
baseline instead of anecdotes, and lets a regression be attributed to a
run's exact configuration.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict

from repro.core.digest import canonical_json


def _canonical_bytes(obj: object) -> bytes:
    """:func:`repro.core.digest.canonical_json` of ``obj`` as UTF-8,
    memoised on frozen dataclass instances.

    The memo lives on the instance, outside its fields, like
    :func:`functools.cached_property` — never in a table keyed by
    equality, where ``1 == 1.0 == True`` (and dataclasses holding
    them) would alias encodings, and hence hashes, that differ.
    """
    params = getattr(type(obj), "__dataclass_params__", None)
    memo = getattr(obj, "__dict__", None)
    cacheable = params is not None and params.frozen and memo is not None
    data = memo.get("_canonical_bytes") if cacheable else None
    if data is None:
        data = canonical_json(obj).encode("utf-8")
        if cacheable:
            memo["_canonical_bytes"] = data
    return data


def config_hash(*objects: object) -> str:
    """Stable short hash over configuration objects.

    Hashes each object's canonical JSON — the same form the result
    digests use, so it follows values, not dict insertion order or
    ``repr`` — with SHA-256, truncated to 12 hex chars, enough to tell
    configurations apart at a glance.  A frozen dataclass is encoded
    once per instance, so re-hashing the same ``SMConfig`` or scaled
    ``TraceSpec`` costs only the digest.
    """
    digest = hashlib.sha256()
    for obj in objects:
        digest.update(_canonical_bytes(obj))
        digest.update(b"\x00")
    return digest.hexdigest()[:12]


@dataclass
class RunManifest:
    """Provenance + throughput record of one simulation run."""

    benchmark: str
    technique: str
    seed: int
    scale: float
    #: The run's identity: its cache filename, service job id and
    #: ledger key (:meth:`repro.engine.jobs.JobRequest.key`).
    run_key: str
    cycles: int
    instructions: int
    #: Wall-clock seconds per phase, e.g. {"build_trace": .., "simulate": ..}.
    wall_seconds: Dict[str, float] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    #: Name of the process that executed the run ("" for legacy/in-process
    #: records; worker process names under the parallel engine).
    worker: str = ""
    #: True when the result was served from the persistent run cache.
    cache_hit: bool = False
    #: Terminal job state: "ok" | "failed" | "timed_out" | "cancelled".
    status: str = "ok"
    #: Worker traceback / reason when ``status != "ok"``.
    error: str = ""
    #: Execution attempts consumed (> 1 means the job was retried).
    attempts: int = 1
    #: Serialized :class:`~repro.core.spec.TechniqueSpec` of the run
    #: (``{}`` for legacy records) — the full declarative configuration,
    #: so a manifest alone can rebuild and re-run its technique.
    spec: Dict[str, object] = field(default_factory=dict)
    #: Id of the engine batch (run-ledger file) this run settled in;
    #: ``""`` for runs executed outside an engine batch.
    run_id: str = ""

    @property
    def total_seconds(self) -> float:
        """Summed wall-clock across the recorded phases."""
        return sum(self.wall_seconds.values())

    @property
    def cycles_per_sec(self) -> float:
        """Simulated-cycle throughput of the simulate phase."""
        simulate = self.wall_seconds.get("simulate", 0.0)
        return self.cycles / simulate if simulate > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (includes the derived throughput)."""
        return {
            "benchmark": self.benchmark,
            "technique": self.technique,
            "seed": self.seed,
            "scale": self.scale,
            "run_key": self.run_key,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "wall_seconds": dict(self.wall_seconds),
            "total_seconds": self.total_seconds,
            "cycles_per_sec": self.cycles_per_sec,
            "created_at": self.created_at,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "spec": dict(self.spec),
            "run_id": self.run_id,
        }

    @property
    def ok(self) -> bool:
        """True when the recorded run completed successfully."""
        return self.status == "ok"
