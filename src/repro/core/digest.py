"""Canonical serialization + sha256 digests of simulation results.

One digest algorithm, shared by every consumer that needs to say "these
two runs are the same run":

* the golden identity suite (``tests/sim/identity.py``) pins the
  simulator bit-identical across rewrites by recomputing these digests
  against ``tests/sim/golden/identity.json``;
* the simulation service (:mod:`repro.service`) stamps every completed
  job with its result digest, so a client can compare a served result
  against a local ``repro run`` without shipping the whole pickle;
* the CI service smoke test asserts served == direct digests;
* run keys (:func:`repro.obs.manifest.config_hash`) hash the same
  canonical JSON of their config inputs, so they follow values, not
  ``repr`` or dict order.

The canonical form flattens a :class:`~repro.sim.sm.SimResult` (or a
multi-SM :class:`~repro.sim.gpu.GPUResult`) into JSON-stable primitives
— floats via ``repr`` (the shortest round-trip form, exact for
identical arithmetic, which is precisely what bit-identity means) —
then hashes the sorted-key JSON encoding.  Any observable drift in the
scheduler, scoreboard, stats or gating paths changes the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json


def _canon(value):
    """Recursively convert a value into JSON-stable primitives."""
    if isinstance(value, dict):
        return {str(_canon(k)): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        # repr() is the shortest round-trip form — exact for identical
        # arithmetic, which is precisely what bit-identity means here.
        return repr(value)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon(dataclasses.asdict(value))
    if hasattr(value, "name"):  # enums (OpClass, ExecUnitKind, ...)
        return value.name
    return str(value)


#: Sorted-key, whitespace-free JSON; one encoder, built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(value) -> str:
    """``value`` in canonical form, as sorted-key compact JSON."""
    return _encode(_canon(value))


def _digest(payload_obj) -> str:
    return hashlib.sha256(_encode(payload_obj).encode("utf-8")).hexdigest()


def canonical_result(result) -> dict:
    """Everything observable about one run, in canonical form."""
    stats = result.stats
    return _canon({
        "kernel_name": result.kernel_name,
        "technique": result.technique,
        "cycles": result.cycles,
        "stats": {
            "cycles": stats.cycles,
            "instructions_issued": stats.instructions_issued,
            "instructions_retired": stats.instructions_retired,
            "fetched": stats.fetched,
            "issued_by_class": {cls.name: n
                                for cls, n in stats.issued_by_class.items()},
            "stalls": dataclasses.asdict(stats.stalls),
            "active_warp_sum": stats.active_warp_sum,
            "active_warp_max": stats.active_warp_max,
            "pending_warp_sum": stats.pending_warp_sum,
            "idle_trackers": {
                name: {"busy": t.busy_cycles, "idle": t.idle_cycles,
                       "histogram": {str(k): v
                                     for k, v in sorted(t.histogram.items())}}
                for name, t in sorted(stats.idle_trackers.items())},
        },
        "memory": result.memory,
        "domain_stats": {name: result.domain_stats[name]
                         for name in sorted(result.domain_stats)},
        "idle_detect_final": result.idle_detect_final,
        "pipeline_issues": result.pipeline_issues,
        "pipeline_lane_work": result.pipeline_lane_work,
        # Each row under the key and field names the digest has always
        # hashed; renaming them would move every golden digest.
        "warp_records": [{"warp_id": warp, "launch_cycle": launch,
                          "finish_cycle": finish, "instructions": insts}
                         for warp, launch, finish, insts in result.warp_rows],
        "metrics": result.metrics,
    })


def result_digest(result) -> str:
    """sha256 over the canonical JSON of one run."""
    return _digest(canonical_result(result))


def canonical_events(events) -> list:
    """An instrumented run's event stream in canonical form, ordered."""
    return [[type(e).__name__, _canon(dataclasses.asdict(e))]
            for e in events]


def event_stream_digest(events) -> str:
    """sha256 over the ordered canonical event stream."""
    return _digest(canonical_events(events))


def canonical_device_result(result) -> dict:
    """Everything observable about one multi-SM run, in canonical form.

    Per-SM results are canonicalised in part order (the aggregation
    order both the serial and engine paths guarantee), so the digest
    pins the whole fan-out, not just the chip-level maxima.
    """
    return _canon({
        "kernel_name": result.kernel_name,
        "technique": result.technique,
        "cycles": result.cycles,
        "total_instructions": result.total_instructions,
        "sm_results": [canonical_result(r) for r in result.sm_results],
    })


def device_result_digest(result) -> str:
    """sha256 over the canonical JSON of one multi-SM run."""
    return _digest(canonical_device_result(result))


__all__ = [
    "canonical_device_result",
    "canonical_json",
    "canonical_events",
    "canonical_result",
    "device_result_digest",
    "event_stream_digest",
    "result_digest",
]
