"""Tests for the content-addressed result cache (satellite 3).

Covers the LRU eviction order, tolerance-aware hits, the
:mod:`repro.io` job-result round-trip, and the disk tier's packs.
"""

import os
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.io import load_job_result, save_job_result
from repro.service import JobResult, ResultCache, SolveJob
from repro.service.cache import PACK_SUFFIX


def _job(p: float, tol: float = 1e-12) -> SolveJob:
    return SolveJob(nu=4, p=p, tol=tol)


def _result(eigenvalue: float, tol: float = 1e-12) -> JobResult:
    return JobResult(
        eigenvalue=eigenvalue,
        concentrations=np.linspace(0.4, 0.0, 5),
        method="reduced",
        iterations=1,
        residual=1e-15,
        converged=True,
        tol=tol,
    )


class TestLRU:
    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ResultCache(capacity=0)

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(capacity=2)
        a, b, c = _job(0.01), _job(0.02), _job(0.03)
        cache.store([(a, _result(1.0))])
        cache.store([(b, _result(2.0))])
        cache.lookup(a)  # touch a → b is now least recent
        cache.store([(c, _result(3.0))])  # evicts b
        assert cache.lookup(a)[1] == "hit-memory"
        assert cache.lookup(b)[1] == "miss"
        assert cache.lookup(c)[1] == "hit-memory"
        assert cache.stats.evictions == 1

    def test_keys_ordered_lru_to_mru(self):
        cache = ResultCache(capacity=3)
        a, b = _job(0.01), _job(0.02)
        cache.store([(a, _result(1.0))])
        cache.store([(b, _result(2.0))])
        cache.lookup(a)
        assert cache.keys() == [b.cache_key(), a.cache_key()]

    def test_clear_keeps_stats(self):
        cache = ResultCache(capacity=2)
        cache.store([(_job(0.01), _result(1.0))])
        cache.clear()
        assert len(cache) == 0 and cache.stats.stores == 1


class TestToleranceAwareness:
    def test_tighter_cached_serves_looser_request(self):
        cache = ResultCache()
        cache.store([(_job(0.01, tol=1e-12), _result(1.0, tol=1e-12))])
        hit, status = cache.lookup(_job(0.01, tol=1e-6))
        assert status == "hit-memory" and hit.tol == 1e-12

    def test_looser_cached_misses_tighter_request(self):
        cache = ResultCache()
        cache.store([(_job(0.01, tol=1e-6), _result(1.0, tol=1e-6))])
        hit, status = cache.lookup(_job(0.01, tol=1e-12))
        assert hit is None and status == "miss"

    def test_tighter_store_replaces_looser(self):
        cache = ResultCache()
        cache.store([(_job(0.01, tol=1e-6), _result(1.0, tol=1e-6))])
        cache.store([(_job(0.01, tol=1e-12), _result(2.0, tol=1e-12))])
        hit, _ = cache.lookup(_job(0.01, tol=1e-12))
        assert hit.eigenvalue == 2.0
        assert cache.stats.replacements == 1

    def test_looser_store_never_overwrites_tighter(self):
        cache = ResultCache()
        cache.store([(_job(0.01, tol=1e-12), _result(1.0, tol=1e-12))])
        cache.store([(_job(0.01, tol=1e-6), _result(9.0, tol=1e-6))])
        hit, _ = cache.lookup(_job(0.01, tol=1e-12))
        assert hit.eigenvalue == 1.0

    def test_contains_respects_tol(self):
        cache = ResultCache()
        cache.store([(_job(0.01, tol=1e-8), _result(1.0, tol=1e-8))])
        assert _job(0.01, tol=1e-6) in cache
        assert _job(0.01, tol=1e-10) not in cache


class TestDiskTier:
    def test_round_trip_via_repro_io(self, tmp_path):
        result = _result(1.7)
        path = str(tmp_path / "result.npz")
        save_job_result(path, result)
        loaded = load_job_result(path)
        assert loaded.eigenvalue == result.eigenvalue
        np.testing.assert_array_equal(loaded.concentrations, result.concentrations)
        assert loaded.method == result.method and loaded.tol == result.tol

    def test_warm_restart_across_instances(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ResultCache(capacity=8, disk_dir=disk)
        first.store([(_job(0.01), _result(1.0))])
        # a brand-new cache (fresh process in real life) hits the disk tier
        second = ResultCache(capacity=8, disk_dir=disk)
        hit, status = second.lookup(_job(0.01))
        assert status == "hit-disk" and hit.eigenvalue == 1.0
        # the disk hit was promoted to memory
        assert second.lookup(_job(0.01))[1] == "hit-memory"
        assert second.stats.disk_hits == 1 and second.stats.memory_hits == 1

    def test_eviction_does_not_lose_disk_entry(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(capacity=1, disk_dir=disk)
        a, b = _job(0.01), _job(0.02)
        cache.store([(a, _result(1.0))])
        cache.store([(b, _result(2.0))])  # evicts a from memory
        hit, status = cache.lookup(a)
        assert status == "hit-disk" and hit.eigenvalue == 1.0

    def test_old_per_entry_file_is_a_miss(self, tmp_path):
        disk = tmp_path / "cache"
        disk.mkdir()
        job = _job(0.01)
        save_job_result(str(disk / f"{job.cache_key()}.npz"), _result(1.0))
        cache = ResultCache(disk_dir=str(disk))
        hit, status = cache.lookup(job)
        assert hit is None and status == "miss"


def _packs(disk) -> list[str]:
    return sorted(name for name in os.listdir(disk) if name.endswith(PACK_SUFFIX))


class TestPackTier:
    """The disk tier is a directory of append-only packs, one per store
    call, indexed by the tightest tolerance per key."""

    def test_tighter_later_pack_wins_in_a_fresh_instance(self, tmp_path):
        disk = str(tmp_path / "cache")
        ResultCache(disk_dir=disk).store([(_job(0.01, tol=1e-6), _result(1.0, tol=1e-6))])
        ResultCache(disk_dir=disk).store([(_job(0.01, tol=1e-12), _result(2.0, tol=1e-12))])
        assert len(_packs(disk)) == 2
        fresh = ResultCache(disk_dir=disk)
        for tol in (1e-12, 1e-6):
            hit, status = fresh.lookup(_job(0.01, tol=tol))
            assert status in ("hit-disk", "hit-memory") and hit.eigenvalue == 2.0

    def test_looser_later_pack_never_masks_a_tighter_one(self, tmp_path):
        disk = str(tmp_path / "cache")
        ResultCache(disk_dir=disk).store([(_job(0.01, tol=1e-12), _result(2.0, tol=1e-12))])
        # a process that never saw the tighter entry wrote a looser one
        elsewhere = tmp_path / "elsewhere"
        ResultCache(disk_dir=str(elsewhere)).store([(_job(0.01, tol=1e-6), _result(1.0, tol=1e-6))])
        (pack,) = _packs(elsewhere)
        os.replace(elsewhere / pack, os.path.join(disk, pack))
        assert len(_packs(disk)) == 2
        hit, status = ResultCache(disk_dir=disk).lookup(_job(0.01, tol=1e-12))
        assert status == "hit-disk" and hit.eigenvalue == 2.0 and hit.tol == 1e-12

    def test_store_skips_entries_the_index_holds_as_tight(self, tmp_path):
        disk = str(tmp_path / "cache")
        ResultCache(disk_dir=disk).store([(_job(0.01, tol=1e-12), _result(2.0, tol=1e-12))])
        second = ResultCache(disk_dir=disk)
        second.store([(_job(0.01, tol=1e-12), _result(2.0, tol=1e-12))])
        second.store([(_job(0.01, tol=1e-6), _result(1.0, tol=1e-6))])
        assert len(_packs(disk)) == 1

    def test_built_index_finds_a_pack_written_afterwards(self, tmp_path):
        disk = str(tmp_path / "cache")
        writer = ResultCache(disk_dir=disk)
        writer.store([(_job(0.01), _result(1.0))])
        reader = ResultCache(disk_dir=disk)
        assert reader.lookup(_job(0.01))[1] == "hit-disk"  # index built
        assert reader.lookup(_job(0.02))[1] == "miss"
        writer.store([(_job(0.02), _result(2.0))])
        hit, status = reader.lookup(_job(0.02))
        assert status == "hit-disk" and hit.eigenvalue == 2.0

    def test_pack_written_in_the_listing_clock_tick_is_found(self, tmp_path):
        disk = tmp_path / "cache"
        writer = ResultCache(disk_dir=str(disk))
        writer.store([(_job(0.01), _result(1.0))])
        tick = time.time_ns()
        os.utime(disk, ns=(tick, tick))
        reader = ResultCache(disk_dir=str(disk))
        assert reader.lookup(_job(0.02))[1] == "miss"  # lists at mtime == tick
        writer.store([(_job(0.02), _result(2.0))])
        os.utime(disk, ns=(tick, tick))  # a coarse clock gives the write the same mtime
        hit, status = reader.lookup(_job(0.02))
        assert status == "hit-disk" and hit.eigenvalue == 2.0

    def test_settled_listing_is_not_redone(self, tmp_path, monkeypatch):
        disk = tmp_path / "cache"
        ResultCache(disk_dir=str(disk)).store([(_job(0.01), _result(1.0))])
        past = os.stat(disk).st_mtime_ns - 10**10
        os.utime(disk, ns=(past, past))
        cache = ResultCache(disk_dir=str(disk))
        assert cache.lookup(_job(0.02))[1] == "miss"  # lists the directory
        listings = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: listings.append(path) or real(path))
        assert cache.lookup(_job(0.03))[1] == "miss"
        assert listings == []

    @pytest.mark.parametrize("kind", ["empty", "garbage", "zip-head", "npy", "no-meta"])
    def test_unreadable_pack_is_a_miss(self, tmp_path, kind):
        disk = tmp_path / "cache"
        ResultCache(disk_dir=str(disk)).store([(_job(0.01), _result(1.0))])
        broken = disk / f"broken{PACK_SUFFIX}"
        if kind == "npy":
            with broken.open("wb") as fh:
                np.save(fh, np.arange(3.0))
        elif kind == "no-meta":
            with broken.open("wb") as fh:
                np.savez(fh, concentrations=np.arange(3.0))
        else:
            payloads = {"empty": b"", "garbage": b"garbage", "zip-head": b"PK\x03\x04 truncated"}
            broken.write_bytes(payloads[kind])
        cache = ResultCache(disk_dir=str(disk))
        assert cache.lookup(_job(0.02)) == (None, "miss")
        assert cache.lookup(_job(0.01))[1] == "hit-disk"

    def test_truncated_pack_is_a_miss(self, tmp_path):
        disk = tmp_path / "cache"
        ResultCache(disk_dir=str(disk)).store([(_job(0.01), _result(1.0))])
        (pack,) = _packs(disk)
        data = (disk / pack).read_bytes()
        (disk / pack).write_bytes(data[: len(data) // 2])
        assert ResultCache(disk_dir=str(disk)).lookup(_job(0.01)) == (None, "miss")

    def test_pack_damaged_after_indexing_is_a_miss(self, tmp_path):
        disk = tmp_path / "cache"
        ResultCache(disk_dir=str(disk)).store([(_job(0.01), _result(1.0))])
        cache = ResultCache(disk_dir=str(disk))
        assert cache.lookup(_job(0.02))[1] == "miss"  # meta indexed
        (pack,) = _packs(disk)
        (disk / pack).write_bytes(b"garbage")
        assert cache.lookup(_job(0.01)) == (None, "miss")

    def test_leftover_temp_file_is_ignored(self, tmp_path):
        disk = tmp_path / "cache"
        ResultCache(disk_dir=str(disk)).store([(_job(0.01), _result(1.0))])
        (pack,) = _packs(disk)
        # a writer killed between its write and its rename
        (disk / f".{pack}.tmp").write_bytes((disk / pack).read_bytes()[:40])
        cache = ResultCache(disk_dir=str(disk))
        assert cache.lookup(_job(0.01))[1] == "hit-disk"
        assert cache.lookup(_job(0.02))[1] == "miss"
        cache.store([(_job(0.02), _result(2.0))])
        assert len(_packs(disk)) == 2

    def test_one_store_per_pair_and_one_for_all_build_the_same_index(self, tmp_path):
        pairs = [(_job(p, tol=tol), _result(p * 100, tol=tol))
                 for p, tol in ((0.01, 1e-8), (0.02, 1e-12), (0.01, 1e-12), (0.03, 1e-6))]
        one = ResultCache(disk_dir=str(tmp_path / "one"))
        for job, result in pairs:
            one.store([(job, result)])
        many = ResultCache(disk_dir=str(tmp_path / "many"))
        many.store(pairs)
        assert len(_packs(tmp_path / "one")) == 4 and len(_packs(tmp_path / "many")) == 1
        assert one.stats.to_dict() == many.stats.to_dict()
        assert one.keys() == many.keys()
        indexes = []
        for name in ("one", "many"):
            fresh = ResultCache(disk_dir=str(tmp_path / name))
            fresh.lookup(_job(0.5))  # a miss builds the index
            indexes.append({k: tol for k, (tol, _, _) in fresh._index.items()})
            for job, _ in pairs:
                hit, status = fresh.lookup(_job(job.p, tol=1e-6))
                assert status in ("hit-disk", "hit-memory")
                assert hit.eigenvalue == job.p * 100 and hit.tol == min(
                    r.tol for j, r in pairs if j.p == job.p
                )
        assert indexes[0] == indexes[1]
        assert len(indexes[0]) == 3

    def test_memory_holds_the_index_and_one_pack(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(capacity=1, disk_dir=disk)
        for pair in ((0.01, 0.11), (0.02, 0.12), (0.03, 0.13)):
            cache.store([(_job(p), _result(p)) for p in pair])
        assert cache._last_read is None  # written packs are not kept
        loads = []
        real = ResultCache._read_pack
        cache._read_pack = lambda pack: loads.append(pack) or real(cache, pack)
        for p in (0.01, 0.11, 0.02, 0.12, 0.03):
            hit, status = cache.lookup(_job(p))
            assert status == "hit-disk" and hit.eigenvalue == p
        assert len(loads) == 3  # one read per pack, each pair of hits shares it
        assert cache._last_read[0] == loads[-1]
        assert set(cache.__dict__) == {
            "capacity", "disk_dir", "stats", "_entries", "_index", "_packs",
            "_last_read", "_listed_ns", "_read_pack",
        }

    def test_round_trip_is_bit_exact(self, tmp_path):
        disk = str(tmp_path / "cache")
        result = JobResult(
            eigenvalue=1.2345678901234567,
            concentrations=np.array([0.1, 1e-300, 5e-324, 0.0, -0.0, np.inf, np.nan]),
            method="power",
            iterations=42,
            residual=float("nan"),
            converged=False,
            tol=1e-10,
        )
        job = _job(0.01, tol=1e-10)
        ResultCache(disk_dir=disk).store([(job, result), (_job(0.02), _result(2.0))])
        hit, _ = ResultCache(disk_dir=disk).lookup(job)
        assert hit.concentrations.tobytes() == result.concentrations.tobytes()
        assert hit.concentrations.dtype == np.float64 and hit.concentrations.flags.owndata
        assert (hit.eigenvalue, hit.method, hit.iterations, hit.converged, hit.tol) == (
            result.eigenvalue, result.method, result.iterations, result.converged, result.tol,
        )
        assert np.isnan(hit.residual)


class TestStats:
    def test_counts_add_up(self):
        cache = ResultCache()
        cache.lookup(_job(0.01))  # miss
        cache.store([(_job(0.01), _result(1.0))])
        cache.lookup(_job(0.01))  # hit
        stats = cache.stats
        assert (stats.misses, stats.memory_hits, stats.stores) == (1, 1, 1)
        assert stats.hits == 1 and stats.lookups == 2
        assert set(stats.to_dict()) == {
            "memory_hits", "disk_hits", "misses", "evictions", "stores", "replacements",
        }
