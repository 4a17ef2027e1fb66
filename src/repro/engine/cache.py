"""Persistent on-disk result/trace cache under ``.repro-cache/``.

Layout::

    .repro-cache/
        results/<benchmark>-<technique>-s<seed>-<hash>.pkl
        traces/<benchmark>-s<seed>-<hash>.pkl

A result filename is the run key
(:meth:`repro.engine.jobs.JobRequest.key`).  The human-readable prefix
is cosmetic; the trailing hash over canonical JSON carries the full
identity (every config object, the seed, the scale, the DRAM latency
and a format version salt: :data:`RESULT_SCHEMA` or
:data:`TRACE_SCHEMA`), so
any config change — including editing a default inside a dataclass —
produces a different key and old entries simply stop being hit.
Invalidation is therefore "delete the directory whenever you feel like
it": entries are immutable once written.

The store is managed, not just a pile of pickles:

* **Atomic writes** (temp file + ``os.replace``) so parallel workers
  can race on the same key safely — last writer wins with an identical
  payload.  The rename is the only publication barrier: readers see
  either the complete old entry or the complete new one, never a
  partial write, and a writer whose temp file is swept out from under
  it (a mis-tuned janitor in another process) transparently rewrites.
* **Payload checksums**: every entry is ``MAGIC + sha256(payload) +
  payload``.  A truncated or bit-flipped entry fails verification and
  reads as a miss — it is never unpickled — as does any pre-checksum
  legacy file.
* **Janitor**: a worker killed between ``mkstemp`` and ``os.replace``
  leaves a ``.tmp`` orphan behind; opening a cache sweeps temp files
  older than :data:`STALE_TMP_AGE` (young ones may belong to a live
  writer and are left alone).
* **Size cap** (optional): ``max_bytes`` evicts least-recently-used
  entries once the total crosses the cap; a hit refreshes its entry's
  recency.  The running total is tracked incrementally (one directory
  scan on the first capped write, O(1) per write after that), so the
  full scan is only re-paid when eviction actually runs — which also
  re-syncs the total against other processes' writes.
* **Cross-process maintenance lock**: the janitor sweep and the LRU
  evictor take a non-blocking ``flock`` on ``.maintenance.lock`` in
  the cache root, so at most one process performs a destructive sweep
  at a time.  Losing the race is fine — the other process is doing
  the same work — so the loser just skips its turn.  Entry reads and
  writes never take the lock: the rename barrier already makes them
  safe, and a lock there would serialise the hot path for nothing.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

try:  # POSIX only; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.obs.telemetry import (
    CacheEvicted,
    CacheHit,
    CacheMiss,
    CacheSwept,
)

_log = logging.getLogger("repro.engine.cache")

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Salt of every result key.  Bump to orphan every cached result
#: (result format change, simulator semantics change that config hashes
#: cannot see, ...).  2: entries gained the checksummed header.  3:
#: result keys switched from technique-config reprs to canonical
#: ``TechniqueSpec`` hashes.  4: ``SimResult`` stores warp lifetimes as
#: int rows and no longer stores ``metrics``.
RESULT_SCHEMA = 4

#: Salt of every trace key, bumped only when the stored
#: :class:`~repro.isa.trace.KernelTrace` format changes, so a result
#: format change keeps every cached trace.  Versions 2 and 3 were
#: shared with the results.  4: a warp trace stores packed columns,
#: not instruction objects.
TRACE_SCHEMA = 4

#: Entry header: magic tag + SHA-256 digest of the pickled payload.
MAGIC = b"RPC2"
_HEADER_LEN = len(MAGIC) + 32

#: Temp files older than this (seconds) are presumed orphaned by a
#: killed worker and swept; younger ones may be a live writer's.
STALE_TMP_AGE = 3600.0

#: Advisory lock file (cache root) serialising destructive maintenance
#: (janitor sweep, LRU eviction) across processes.
LOCK_FILENAME = ".maintenance.lock"


@contextmanager
def maintenance_lock(root: Union[str, Path],
                     blocking: bool = False) -> Iterator[bool]:
    """Advisory cross-process lock over one cache root.

    Yields True when the lock was acquired, False when another process
    holds it (non-blocking mode).  ``flock`` locks die with their
    holder, so a killed sweeper can never wedge the cache.  On
    platforms without ``fcntl`` the lock is a no-op that always
    acquires — single-process correctness there still comes from the
    rename barrier.
    """
    root = Path(root)
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield True
        return
    try:
        root.mkdir(parents=True, exist_ok=True)
        handle = open(root / LOCK_FILENAME, "a+b")
    except OSError:
        yield True  # unlockable root: fall back to rename-barrier only
        return
    try:
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(handle, flags)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
    finally:
        handle.close()


class RunCache:
    """Checksummed pickle-per-entry store with janitor and size cap.

    Args:
        root: Cache directory (created on first write).
        max_bytes: Optional total-size cap; exceeding it after a write
            evicts least-recently-used entries until back under.
        janitor: Sweep stale ``.tmp`` orphans when opening an existing
            cache directory (one scandir per group).  Engine workers
            open their per-job caches with this off — the engine
            sweeps once per batch instead.
        stale_tmp_age: Age in seconds past which a temp file counts as
            orphaned.
        listener: Optional callable receiving cache telemetry events
            (:class:`~repro.obs.telemetry.CacheHit` / ``CacheMiss`` /
            ``CacheEvicted`` / ``CacheSwept``) as they happen — a
            worker's telemetry session forwards them to the parent bus.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 max_bytes: Optional[int] = None,
                 janitor: bool = True,
                 stale_tmp_age: float = STALE_TMP_AGE,
                 listener: Optional[Callable] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stale_tmp_age = stale_tmp_age
        self.listener = listener
        self.hits = 0
        self.misses = 0
        self.corrupt_misses = 0
        self.evictions = 0
        self.swept_tmp = 0
        #: Approximate stored-bytes total, initialised lazily on the
        #: first capped write; eviction re-syncs it from disk.
        self._approx_bytes: Optional[int] = None
        if janitor and self.root.is_dir():
            self.sweep_tmp()

    def path(self, group: str, key: str) -> Path:
        """Filesystem location of one entry."""
        return self.root / group / f"{key}.pkl"

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------

    def get(self, group: str, key: str) -> Optional[Any]:
        """Load an entry, or None on miss.

        Corrupt, truncated, legacy-format and version-skewed entries
        all count as misses — the checksum is verified *before* any
        unpickling happens — but are tracked (and reported to the
        ``listener``) separately from plain absences.
        """
        path = self.path(group, key)
        try:
            blob = path.read_bytes()
        except OSError:  # absent (or unreadable): the ordinary miss
            self.misses += 1
            self._emit(CacheMiss, group=group, key=key)
            return None
        try:
            value = _decode(blob)
        except (ValueError, pickle.PickleError, EOFError,
                AttributeError, ImportError, TypeError):
            # Present but unusable: damaged, legacy or foreign entry
            # (a class whose constructor changed raises TypeError).
            self.misses += 1
            self.corrupt_misses += 1
            self._emit(CacheMiss, group=group, key=key, corrupt=True)
            return None
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        self.hits += 1
        self._emit(CacheHit, group=group, key=key)
        return value

    def put(self, group: str, key: str, value: Any) -> None:
        """Store an entry atomically (concurrent writers are safe).

        ``os.replace`` is the publication barrier: readers observe the
        complete old entry or the complete new one.  If another
        process's janitor swept our temp file before the rename (only
        possible with a sweep cutoff shorter than our write time), the
        write is retried once with a fresh — therefore young — temp
        file.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + hashlib.sha256(payload).digest() + payload
        path = self.path(group, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for retry in (False, True):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
                break
            except FileNotFoundError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                if retry:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(blob)
            if self._approx_bytes > self.max_bytes:
                self._evict()

    def _emit(self, event_type: type, **fields: object) -> None:
        """Hand one cache event to the listener (never raises)."""
        if self.listener is None:
            return
        if event_type in (CacheHit, CacheMiss):
            fields.setdefault(
                "worker", multiprocessing.current_process().name)
        try:
            self.listener(event_type.now(**fields))
        except Exception:  # telemetry must never break the cache path
            _log.debug("cache listener failed", exc_info=True)

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------

    def sweep_tmp(self, max_age: Optional[float] = None) -> int:
        """Remove orphaned ``.tmp`` files; returns how many were swept.

        A worker killed between ``mkstemp`` and ``os.replace`` would
        otherwise litter the cache forever.  Only files older than
        ``max_age`` (default: the cache's ``stale_tmp_age``) go — a
        fresh temp file may belong to a concurrent writer mid-flight.
        At most one process sweeps at a time (advisory flock); a loser
        skips its turn, since the winner is doing the same work.
        """
        with maintenance_lock(self.root) as held:
            if not held:
                return 0
            return self._sweep_tmp_locked(max_age)

    def _sweep_tmp_locked(self, max_age: Optional[float]) -> int:
        cutoff = time.time() - (self.stale_tmp_age if max_age is None
                                else max_age)
        removed = 0
        for group_dir in self._group_dirs():
            try:
                entries = list(os.scandir(group_dir))
            except OSError:
                continue
            for entry in entries:
                if not entry.name.endswith(".tmp"):
                    continue
                try:
                    if entry.stat().st_mtime <= cutoff:
                        os.unlink(entry.path)
                        removed += 1
                except OSError:
                    continue
        self.swept_tmp += removed
        if removed:
            _log.info("cache janitor: swept %d stale tmp file(s) "
                      "under %s", removed, self.root)
            self._emit(CacheSwept, removed=removed)
        return removed

    def total_bytes(self) -> int:
        """Summed size of every stored entry."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict(self) -> None:
        """Delete least-recently-used entries until under ``max_bytes``.

        Recency is the entry's mtime: writes stamp it, hits refresh it
        via ``os.utime``.  Racing processes may evict each other's
        entries; an evicted entry is simply a future miss.  The scan's
        exact total replaces the incremental estimate, correcting any
        drift from overwrites or concurrent writers.  The advisory
        maintenance lock keeps concurrent evictors from double-deleting
        one pass; a loser drops its size estimate so the next capped
        write re-measures against the winner's result.
        """
        with maintenance_lock(self.root) as held:
            if not held:
                # Another process is evicting right now; its pass
                # changes the on-disk total, so forget ours.
                self._approx_bytes = None
                return
            self._evict_locked()

    def _evict_locked(self) -> None:
        stamped = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        freed = 0
        if total > self.max_bytes:
            stamped.sort(key=lambda item: (item[0], str(item[2])))
            for _, size, path in stamped:
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                self.evictions += 1
                evicted += 1
                freed += size
        self._approx_bytes = total
        if evicted:
            _log.info("cache LRU cap: evicted %d entrie(s), freed %d "
                      "bytes (cap %d, now %d) under %s", evicted,
                      freed, self.max_bytes, total, self.root)
            self._emit(CacheEvicted, entries=evicted, bytes=freed)

    def _group_dirs(self) -> Iterator[Path]:
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for child in children:
            if child.is_dir():
                yield child

    def _entries(self) -> Iterator[Path]:
        for group_dir in self._group_dirs():
            try:
                children = list(group_dir.iterdir())
            except OSError:
                continue
            for child in children:
                if child.suffix == ".pkl":
                    yield child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RunCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


def _decode(blob: bytes) -> Any:
    """Verify an entry's header and checksum, then unpickle it."""
    if len(blob) < _HEADER_LEN or not blob.startswith(MAGIC):
        raise ValueError("missing or foreign cache entry header")
    digest = blob[len(MAGIC):_HEADER_LEN]
    payload = blob[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checksum mismatch (truncated or corrupt entry)")
    return pickle.loads(payload)
