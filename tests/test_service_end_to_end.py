"""End-to-end tests for the solver service: manifests, CLI, reports.

These exercise the ISSUE acceptance path: a mixed full/reduced manifest
with duplicates is solved with each unique job answered once, an
injected failing route completes via fallback with the failure named in
the report, and a rerun against a warm disk cache performs zero new
solves.
"""

import json
import os

import numpy as np
import pytest

import repro.service.jobspec as jobspec
from repro.cli import main
from repro.exceptions import ValidationError
from repro.io import load_batch_report, save_batch_report
from repro.service import (
    BatchReport,
    SolveJob,
    SolverService,
    WorkerPool,
    is_batchable,
    load_manifest,
    run_manifest,
)
from repro.service.cache import PACK_SUFFIX


def _manifest(tmp_path, options=None) -> str:
    data = {
        "defaults": {"nu": 6, "tol": 1e-10},
        "jobs": [
            {"p": 0.01, "landscape": "single-peak"},              # reduced
            {"p": 0.02, "landscape": "single-peak"},              # reduced
            {"p": 0.02, "landscape": "single-peak"},              # duplicate
            {"p": 0.02, "landscape": "random", "method": "power", "seed": 3},
        ],
        "options": options or {},
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSolverService:
    @pytest.mark.service_smoke
    def test_duplicates_solved_once(self):
        service = SolverService(kind="serial")
        report = service.submit([SolveJob(nu=6, p=0.01)] * 3)
        assert report.passed
        assert report.n_solved == 1 and report.n_duplicates == 2
        # all three requests share the one result object
        assert report.results[0] is report.results[1] is report.results[2]

    @pytest.mark.service_smoke
    def test_resubmit_fully_cached(self):
        service = SolverService(kind="serial")
        jobs = [SolveJob(nu=6, p=p) for p in (0.01, 0.02)]
        first = service.submit(jobs)
        second = service.submit(jobs)
        assert first.n_solved == 2 and first.n_cached == 0
        assert second.n_solved == 0 and second.n_cached == 2
        for a, b in zip(first.results, second.results):
            assert a.concentrations.tobytes() == b.concentrations.tobytes()

    def test_tolerance_aware_cache_across_submissions(self):
        service = SolverService(kind="serial")
        service.submit([SolveJob(nu=6, p=0.01, landscape="random", method="power", tol=1e-12)])
        report = service.submit(
            [SolveJob(nu=6, p=0.01, landscape="random", method="power", tol=1e-6)]
        )
        assert report.n_cached == 1 and report.n_solved == 0

    def test_warm_disk_cache_zero_new_solves(self, tmp_path):
        disk = str(tmp_path / "cache")
        jobs = [SolveJob(nu=6, p=p) for p in (0.01, 0.02)]
        cold = SolverService(kind="serial", cache_dir=disk).submit(jobs)
        # a brand-new service instance = a fresh process with the same disk
        warm = SolverService(kind="serial", cache_dir=disk).submit(jobs)
        assert cold.n_solved == 2
        assert warm.n_solved == 0 and warm.n_cached == 2
        assert all(t.cache == "hit-disk" for t in warm.telemetry)

    def test_cold_submit_writes_one_pack_and_warm_reads_it(self, tmp_path, monkeypatch):
        disk = tmp_path / "cache"
        disk.mkdir()
        jobs = [SolveJob(nu=6, p=p) for p in (0.01, 0.02, 0.03, 0.04)]
        cold = SolverService(kind="serial", cache_dir=str(disk)).submit(jobs)
        assert cold.n_solved == len(jobs)
        (pack,) = os.listdir(disk)  # one pack, no temp file, no per-entry files
        assert pack.endswith(PACK_SUFFIX)

        loads = []
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            loads.append(os.path.basename(getattr(file, "name", file)))
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        warm = SolverService(kind="serial", cache_dir=str(disk)).submit(jobs)
        assert warm.n_solved == 0 and all(t.cache == "hit-disk" for t in warm.telemetry)
        # the pack is opened once for its index and once on its first hit
        assert loads == [pack, pack]
        for a, b in zip(cold.results, warm.results):
            assert a.concentrations.tobytes() == b.concentrations.tobytes()

    def test_failing_route_completes_via_fallback_with_named_failure(self):
        from repro.service import execute_job

        def broken_lanczos(job):
            if job.method == "lanczos":
                raise RuntimeError("injected lanczos failure")
            return execute_job(job)

        service = SolverService(
            pool=WorkerPool(1, kind="serial", retries=0, solve_fn=broken_lanczos)
        )
        job = SolveJob(nu=5, p=0.02, landscape="random", method="lanczos", tol=1e-10)
        report = service.submit([job])
        assert report.passed
        assert report.n_fallbacks == 1
        assert any("injected lanczos failure" in f for f in report.failures())

    def test_solve_single_raises_on_total_failure(self):
        def always_broken(job):
            raise RuntimeError("dead backend")

        service = SolverService(
            pool=WorkerPool(1, kind="serial", retries=0, solve_fn=always_broken)
        )
        with pytest.raises(ValidationError, match="dead backend"):
            service.solve(SolveJob(nu=5, p=0.02))

    def test_entry_view(self):
        service = SolverService(kind="serial")
        report = service.submit([SolveJob(nu=6, p=0.01)] * 2)
        job, result, tele = report.entry(1)
        assert job.p == 0.01 and result is not None and tele.status == "solved"


class TestHashOnce:
    """A cold submit hashes each unique job's cache and operator digest
    once, and its report is the report of an un-memoized run."""

    @staticmethod
    def manifest() -> list[SolveJob]:
        reduced = [
            SolveJob(nu=6, p=p, landscape="hamming", class_values=(2.0,) + (1.0,) * 6)
            for p in (0.01, 0.02, 0.03)
        ]
        power = [
            SolveJob(nu=6, p=0.02, landscape="random", seed=s, method="power", tol=1e-10)
            for s in range(3)
        ]
        lone = SolveJob(nu=5, p=0.01, landscape="random", method="lanczos", tol=1e-10)
        unique = reduced + power + [lone]
        # duplicates: the same objects and equal, separately built jobs
        return unique + reduced[:2] + [SolveJob.from_dict(j.to_dict()) for j in power]

    @staticmethod
    def comparable(report) -> dict:
        data = report.to_dict()
        data.pop("wall_seconds")
        for tele in data["telemetry"]:
            tele.pop("queue_seconds"), tele.pop("solve_seconds")
        return data

    def test_each_digest_computed_once_per_unique_job(self, monkeypatch):
        calls = []
        real = jobspec.content_hash

        def counting(payload):
            digest = real(payload)
            calls.append((payload, digest))
            return digest

        jobs = self.manifest()
        monkeypatch.setattr(jobspec, "content_hash", counting)
        report = SolverService(kind="serial").submit(jobs)
        monkeypatch.undo()
        assert report.passed and report.n_solved == 7 and report.n_batched == 3

        content = [d for p, d in calls if "tol" in p]
        operator = [d for p, d in calls if "reduced" in p]
        cache = [d for p, d in calls if "tol" not in p and "reduced" not in p]
        assert len(calls) == len(content) + len(operator) + len(cache)
        assert len(content) == len(jobs)  # plan_batch's dedup, once per request
        unique = {job.content_key(): job for job in jobs}.values()
        assert sorted(cache) == sorted(job.cache_key() for job in unique)
        # only the blocks' planning asks for an operator key
        assert sorted(operator) == sorted(job.operator_key() for job in unique if is_batchable(job))

        def unmemoized(name):
            method = getattr(SolveJob, name)

            def call(self):
                for memo in jobspec._KEY_MEMOS:
                    vars(self).pop(memo, None)
                return method(self)

            return call

        for name in ("cache_key", "operator_key"):
            monkeypatch.setattr(SolveJob, name, unmemoized(name))
        fresh = SolverService(kind="serial").submit(self.manifest())
        assert self.comparable(fresh) == self.comparable(report)


class TestManifests:
    def test_load_manifest_merges_defaults(self, tmp_path):
        jobs, options = load_manifest(_manifest(tmp_path, options={"workers": 2}))
        assert len(jobs) == 4
        assert all(j.nu == 6 and j.tol == 1e-10 for j in jobs)
        assert options == {"workers": 2}

    def test_unknown_option_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [{"nu": 4, "p": 0.01}], "options": {"turbo": 1}}))
        with pytest.raises(ValidationError, match="turbo"):
            load_manifest(str(path))

    def test_empty_jobs_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": []}))
        with pytest.raises(ValidationError):
            load_manifest(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            load_manifest(str(path))

    @pytest.mark.service_smoke
    def test_run_manifest_mixed_batch(self, tmp_path):
        report = run_manifest(_manifest(tmp_path), kind="serial")
        assert report.passed
        assert report.n_jobs == 4 and report.n_duplicates == 1
        assert report.n_solved == 3
        # reduced jobs planned before the full power job
        routes = [t.route for t in report.telemetry if t.status == "solved"]
        assert routes[-1] == "power"

    def test_run_manifest_override_beats_options(self, tmp_path):
        path = _manifest(tmp_path, options={"workers": 8, "kind": "thread"})
        report = run_manifest(path, kind="serial", workers=1)
        assert report.passed


class TestBatchReport:
    def test_json_round_trip(self, tmp_path):
        report = run_manifest(_manifest(tmp_path), kind="serial")
        path = str(tmp_path / "report.json")
        save_batch_report(path, report)
        loaded = load_batch_report(path)
        assert isinstance(loaded, BatchReport)
        assert loaded.passed == report.passed
        assert loaded.n_solved == report.n_solved
        assert loaded.index_map == report.index_map
        for a, b in zip(loaded.results, report.results):
            np.testing.assert_array_equal(a.concentrations, b.concentrations)

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValidationError):
            BatchReport.from_dict({"kind": "something-else"})


class TestBatchCLI:
    @pytest.mark.service_smoke
    def test_cold_then_warm_run(self, tmp_path, capsys):
        manifest = _manifest(tmp_path)
        cache = str(tmp_path / "cache")
        report_path = str(tmp_path / "report.json")
        code = main(["batch", manifest, "--pool", "serial", "--cache-dir", cache,
                     "--json", report_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 solved" in out and "1 duplicate" in out
        cold = load_batch_report(report_path)
        assert cold.passed and cold.n_solved == 3

        # warm rerun: zero new solves, everything from the disk cache
        code = main(["batch", manifest, "--pool", "serial", "--cache-dir", cache,
                     "--json", report_path])
        assert code == 0
        warm = load_batch_report(report_path)
        assert warm.n_solved == 0 and warm.n_cached == 3

    def test_report_to_stdout(self, tmp_path, capsys):
        manifest = _manifest(tmp_path)
        code = main(["batch", manifest, "--pool", "serial", "--quiet", "--json", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro.BatchReport.v1"
        assert payload["passed"] is True

    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
