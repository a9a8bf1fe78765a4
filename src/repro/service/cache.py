"""Content-addressed result cache: in-memory LRU + optional disk store.

Real quasispecies workloads are dominated by dense parameter sweeps
over (ν, p, landscape) grids in which many requests are exact
duplicates — an error-threshold scan re-run with one extra grid point
repeats every previous solve.  The cache makes those repeats free:

* **Keying** — entries are filed under
  :meth:`repro.service.jobspec.SolveJob.cache_key`, a deterministic
  content hash of the problem *and* route but **not** the accuracy
  knobs.
* **Tolerance-aware lookup** — a cached solve performed at tolerance
  ``t`` satisfies any request with ``tol >= t`` (a tighter solve is a
  strictly better answer).  A looser cached solve never masks a tighter
  request; the tighter solve then *replaces* the looser entry.
* **LRU accounting** — bounded in-memory capacity with
  least-recently-used eviction; every hit/miss/eviction/store is
  counted in :class:`CacheStats` for the batch reports.
* **Disk tier** — an optional directory of append-only *pack* files,
  giving warm restarts across processes: re-running a manifest against
  a warm disk cache performs zero new solves.  Each store call writes
  one ``<random hex>.pack.npz``: a ``meta`` member (the JSON list of each
  entry's key, eigenvalue, iterations, residual, converged flag,
  method, tol and slice bounds) and a ``concentrations`` member (every
  entry's concentrations concatenated as float64).  A pack is written
  under a temporary name and ``os.replace``-d into place, so readers
  never see a partial pack and processes can share a directory.  The
  cache indexes the packs' ``meta`` on its first disk access, keeps the
  tightest ``tol`` per key, and re-lists the directory on a miss only
  when its mtime has moved.  Only that index stays resident: a hit
  reads its pack's ``meta`` and ``concentrations`` in one open, and the
  last pack read is kept, so a batch of hits in one pack reads it once.
  An unreadable pack is skipped: its entries are misses.  Superseded
  entries are not compacted away.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.service.jobspec import JobResult, SolveJob

__all__ = ["CacheStats", "ResultCache"]

#: cache-status labels used in telemetry and batch reports
MEMORY_HIT = "hit-memory"
DISK_HIT = "hit-disk"
MISS = "miss"

#: file-name suffix of a disk-tier pack; anything else in the directory
#: (a writer's temporary file, an old per-entry ``<key>.npz``) is ignored
PACK_SUFFIX = ".pack.npz"

#: a pack entry's result scalars, each with the type it is read back as
_RESULT_FIELDS = {
    "eigenvalue": float,
    "iterations": int,
    "residual": float,
    "converged": bool,
    "method": str,
    "tol": float,
}
#: every field of a pack's ``meta`` entry: the result scalars, the cache
#: key and the entry's slice of ``concentrations``
_ENTRY_FIELDS = {"key": str, **_RESULT_FIELDS, "start": int, "stop": int}

#: what reading a damaged pack raises; its entries then read as misses
_PACK_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile)

#: a directory mtime this close to the wall clock may share its clock
#: tick with a write still to come, so a listing taken then is redone
_SETTLE_NS = 1_000_000_000


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    replacements: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    def to_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "replacements": self.replacements,
        }


@dataclass
class _Entry:
    tol: float
    result: JobResult = field(repr=False)


class ResultCache:
    """Tolerance-aware, content-addressed cache of :class:`JobResult`.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory entries; the least recently used
        entry is evicted when full (disk entries are never evicted).
    disk_dir:
        Optional directory for the persistent pack tier.  Created on
        first store; safe to share between processes (every pack gets a
        unique name and appears atomically).

    Examples
    --------
    >>> from repro.service import ResultCache, SolveJob
    >>> cache = ResultCache(capacity=2)
    >>> cache.lookup(SolveJob(nu=4, p=0.01))
    (None, 'miss')
    """

    def __init__(self, capacity: int = 512, disk_dir: str | None = None):
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        # disk tier: cache key -> (tol, pack, slot) of its tightest entry;
        # the name of every pack indexed so far; the pack read last, as
        # (name, meta, concentrations), so a batch of hits in one pack
        # reads it once while memory holds at most one pack
        self._index: dict[str, tuple[float, str, int]] = {}
        self._packs: set[str] = set()
        self._last_read: tuple[str, list[dict], np.ndarray] | None = None
        self._listed_ns: int | None = None

    # -------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job: SolveJob) -> bool:
        entry = self._entries.get(job.cache_key())
        return entry is not None and entry.tol <= job.tol

    def keys(self) -> list[str]:
        """In-memory keys, least → most recently used."""
        return list(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry (disk tier untouched)."""
        self._entries.clear()

    # -------------------------------------------------------------- lookup
    def lookup(self, job: SolveJob) -> tuple[JobResult | None, str]:
        """Find a result for ``job``; returns ``(result, status)``.

        ``status`` is ``"hit-memory"``, ``"hit-disk"`` or ``"miss"``.
        A hit requires the stored solve tolerance to be at least as
        tight as ``job.tol``; disk hits are promoted into memory.
        """
        key = job.cache_key()
        entry = self._entries.get(key)
        if entry is not None and entry.tol <= job.tol:
            self._entries.move_to_end(key)
            self.stats.memory_hits += 1
            return entry.result, MEMORY_HIT
        disk = self._disk_result(key, job.tol)
        if disk is not None:
            self._put_memory(key, _Entry(disk.tol, disk))
            self.stats.disk_hits += 1
            return disk, DISK_HIT
        self.stats.misses += 1
        return None, MISS

    # --------------------------------------------------------------- store
    def store(self, pairs) -> None:
        """File each ``(job, result)`` pair under the job's content hash;
        the disk tier gets one pack per call.

        A tighter-tolerance entry is never overwritten by a looser one;
        a tighter arrival replaces the looser entry in both tiers.
        """
        fresh = []
        for job, result in pairs:
            key = job.cache_key()
            existing = self._entries.get(key)
            if existing is not None and existing.tol <= result.tol:
                self._entries.move_to_end(key)
                continue
            if existing is not None:
                self.stats.replacements += 1
            self._put_memory(key, _Entry(result.tol, result))
            self.stats.stores += 1
            fresh.append((key, result))
        if self.disk_dir is not None and fresh:
            self._write_pack(fresh)

    def _put_memory(self, key: str, entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ---------------------------------------------------------- disk tier
    def _disk_result(self, key: str, tol: float) -> JobResult | None:
        """The disk tier's tightest entry for ``key`` if it meets ``tol``."""
        if self.disk_dir is None:
            return None
        held = self._index.get(key)
        if held is None or held[0] > tol:
            self._refresh()
            held = self._index.get(key)
        if held is None or held[0] > tol:
            return None
        _, pack, slot = held
        if self._last_read is None or self._last_read[0] != pack:
            loaded = self._read_pack(pack)
            if loaded is None:
                self._index = {k: v for k, v in self._index.items() if v[1] != pack}
                return None
            self._last_read = (pack, *loaded)
        _, meta, concentrations = self._last_read
        entry = meta[slot]
        return JobResult(
            concentrations=concentrations[entry["start"]:entry["stop"]].copy(),
            **{name: entry[name] for name in _RESULT_FIELDS},
        )

    def _refresh(self) -> None:
        """Index the packs not seen yet, unless the directory's mtime
        still matches the last listing."""
        try:
            mtime = os.stat(self.disk_dir).st_mtime_ns
        except OSError:
            return  # nothing stored yet
        if mtime == self._listed_ns:
            return
        self._listed_ns = mtime if time.time_ns() - mtime > _SETTLE_NS else None
        for name in os.listdir(self.disk_dir):
            if name.endswith(PACK_SUFFIX) and name not in self._packs:
                self._index_pack(name, self._read_meta(name) or [])

    def _index_pack(self, pack: str, meta: list[dict]) -> None:
        self._packs.add(pack)
        for slot, entry in enumerate(meta):
            held = self._index.get(entry["key"])
            if held is None or entry["tol"] < held[0]:
                self._index[entry["key"]] = (entry["tol"], pack, slot)

    @contextmanager
    def _open(self, pack: str):
        # np.load leaves the file open when the archive fails to parse
        with open(os.path.join(self.disk_dir, pack), "rb") as fh, np.load(fh) as archive:
            yield archive

    @staticmethod
    def _parse_meta(archive) -> list[dict]:
        raw = json.loads(archive["meta"].tobytes())
        return [{name: cast(e[name]) for name, cast in _ENTRY_FIELDS.items()} for e in raw]

    def _read_meta(self, pack: str) -> list[dict] | None:
        try:
            with self._open(pack) as archive:
                return self._parse_meta(archive)
        except _PACK_ERRORS:
            return None

    def _read_pack(self, pack: str) -> tuple[list[dict], np.ndarray] | None:
        """A pack's meta and concentrations, from one open of its file."""
        try:
            with self._open(pack) as archive:
                meta = self._parse_meta(archive)
                concentrations = archive["concentrations"]
        except _PACK_ERRORS:
            return None
        stop = max((entry["stop"] for entry in meta), default=0)
        if concentrations.dtype != np.float64 or concentrations.shape != (stop,):
            return None
        return meta, concentrations

    def _write_pack(self, fresh: list[tuple[str, JobResult]]) -> None:
        """Write the entries the index lacks at this tolerance as one pack."""
        self._refresh()
        fresh = [
            (key, result)
            for key, result in fresh
            if (held := self._index.get(key)) is None or held[0] > result.tol
        ]
        if not fresh:
            return
        arrays = [np.asarray(r.concentrations, dtype=np.float64).ravel() for _, r in fresh]
        meta, start = [], 0
        for (key, result), values in zip(fresh, arrays):
            entry = {name: cast(getattr(result, name)) for name, cast in _RESULT_FIELDS.items()}
            meta.append(entry | {"key": key, "start": start, "stop": start + values.size})
            start += values.size
        concentrations = np.concatenate(arrays)
        pack = os.urandom(16).hex() + PACK_SUFFIX
        os.makedirs(self.disk_dir, exist_ok=True)
        tmp = os.path.join(self.disk_dir, f".{pack}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                    concentrations=concentrations,
                )
            os.replace(tmp, os.path.join(self.disk_dir, pack))
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        self._index_pack(pack, meta)
