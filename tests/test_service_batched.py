"""Batched solve path through the service layer.

Covers the scheduler's block extraction (`plan_batched_jobs`), the
pool's block execution with per-failure-scope degradation
(`run_batched`), the `SolverService` wiring (`BatchReport.n_batched`),
the manifest/CLI plumbing, and the acceptance property: a batched run
answers every job with bitwise the same result as the scalar route.
"""

import json
import time

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ValidationError
from repro.service import (
    BatchedSolveJob,
    JobResult,
    SolveJob,
    SolverService,
    WorkerPool,
    execute_batched_job,
    execute_job,
    is_batchable,
    plan_batch,
    plan_batched_jobs,
    run_manifest,
)

NU = 6


def sharing_jobs(n=4, method="power", **overrides):
    """Jobs sharing one mutation operator (same nu/p) across landscapes."""
    base = dict(nu=NU, p=0.02, method=method, tol=1e-10)
    base.update(overrides)
    variants = [
        dict(landscape="single-peak", peak=2.0),
        dict(landscape="single-peak", peak=4.0),
        dict(landscape="random", seed=1),
        dict(landscape="linear"),
    ]
    return [SolveJob(**{**base, **v}) for v in variants[:n]]


class TestIsBatchable:
    def test_power_fmmp_is_batchable(self):
        assert is_batchable(SolveJob(nu=NU, p=0.02, method="power"))

    def test_other_routes_are_not(self):
        assert not is_batchable(SolveJob(nu=NU, p=0.02, method="dense"))
        assert not is_batchable(
            SolveJob(nu=NU, p=0.02, method="power", operator="xmvp")
        )
        # auto on an error-class landscape resolves to the reduced route
        assert not is_batchable(SolveJob(nu=NU, p=0.02, method="auto"))


class TestPlanBatchedJobs:
    def test_operator_sharing_group_becomes_one_block(self):
        jobs = sharing_jobs(4)
        plan = plan_batch(jobs)
        blocks = plan_batched_jobs(plan)
        assert len(blocks) == 1
        block = blocks[0]
        assert isinstance(block, BatchedSolveJob)
        assert block.batch == 4
        assert sorted(block.indices) == list(block.indices)
        assert all(is_batchable(j) for j in block.jobs)

    def test_distinct_operators_stay_separate(self):
        jobs = sharing_jobs(2) + sharing_jobs(2, p=0.05)
        blocks = plan_batched_jobs(plan_batch(jobs))
        assert len(blocks) == 2
        keys = {b.key for b in blocks}
        assert len(keys) == 2

    def test_forms_split_blocks(self):
        jobs = sharing_jobs(2, form="right") + sharing_jobs(2, form="left")
        blocks = plan_batched_jobs(plan_batch(jobs))
        assert sorted(b.form for b in blocks) == ["left", "right"]

    def test_lone_batchable_job_stays_scalar(self):
        assert plan_batched_jobs(plan_batch(sharing_jobs(1))) == []
        assert len(plan_batched_jobs(plan_batch(sharing_jobs(2)))) == 1

    def test_subset_restricts_membership(self):
        jobs = sharing_jobs(4)
        plan = plan_batch(jobs)
        blocks = plan_batched_jobs(plan, subset=[0, 2])
        assert len(blocks) == 1 and set(blocks[0].indices) == {0, 2}
        assert plan_batched_jobs(plan, subset=[1]) == []

    def test_non_batchable_members_excluded(self):
        jobs = sharing_jobs(3) + [SolveJob(nu=NU, p=0.02, method="dense")]
        blocks = plan_batched_jobs(plan_batch(jobs))
        assert len(blocks) == 1 and blocks[0].batch == 3

    def test_one_block_per_tolerance(self):
        """A job is never iterated further than it asked for because it
        was batched: blocks share ``tol`` and ``max_iterations``."""
        jobs = sharing_jobs(3) + sharing_jobs(3, tol=1e-6)
        blocks = plan_batched_jobs(plan_batch(jobs))
        assert sorted(b.tol for b in blocks) == [1e-10, 1e-6]
        for block in blocks:
            assert block.batch == 3
            assert {j.tol for j in block.jobs} == {block.tol}

    def test_one_block_per_iteration_cap(self):
        jobs = sharing_jobs(2) + sharing_jobs(2, max_iterations=500)
        blocks = plan_batched_jobs(plan_batch(jobs))
        assert sorted(b.max_iterations for b in blocks) == [500, 100_000]


class TestExecuteBatchedJob:
    def make_block(self, **overrides):
        jobs = sharing_jobs(4, **overrides)
        return plan_batched_jobs(plan_batch(jobs))[0]

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(shift=True), dict(method="auto"), dict(mutation="persite")],
        ids=["unshifted", "shifted", "auto", "persite"],
    )
    def test_bitwise_equal_to_execute_job(self, form, overrides):
        """Every numeric field of a job's batched entry equals what
        ``execute_job`` returns for it alone."""
        jobs = [
            SolveJob(nu=8, p=0.01, landscape="random", peak=peak, seed=1, form=form,
                     tol=1e-12, **{"method": "power", **overrides})
            for peak in (2.0, 3.0, 4.5, 6.0)
        ]
        block = plan_batched_jobs(plan_batch(jobs))[0]
        assert block.batch == 4
        batched = execute_batched_job(block)
        assert len(batched) == block.batch
        for job, res in zip(block.jobs, batched):
            scalar = execute_job(job)
            assert res.converged
            assert res.eigenvalue == scalar.eigenvalue
            assert res.residual == scalar.residual
            assert res.iterations == scalar.iterations
            assert res.tol == scalar.tol
            np.testing.assert_array_equal(res.concentrations, scalar.concentrations)

    def test_shifted_label_when_auto_shift_applies(self):
        block = self.make_block()  # method=power, shift=False, uniform -> no auto
        results = execute_batched_job(block)
        assert all(r.method == "BPi(Fmmp)" for r in results)
        shifted = self.make_block(shift=True)
        results = execute_batched_job(shifted)
        assert all(r.method == "BPi(Fmmp, shifted)" for r in results)


class TestRunBatched:
    def test_telemetry_carries_batch_size(self):
        block = plan_batched_jobs(plan_batch(sharing_jobs(3)))[0]
        pool = WorkerPool(kind="serial")
        outcomes = pool.run_batched(block)
        assert len(outcomes) == 3
        for result, tele in outcomes:
            assert result is not None and result.converged
            assert tele.status == "solved"
            assert tele.route == "batched-power"
            assert tele.batch == 3
            assert not tele.fallback_used
            # round trip keeps the new field
            assert type(tele).from_dict(tele.to_dict()).batch == 3

    def test_block_failure_degrades_every_member_to_scalar(self):
        def broken(bjob):
            raise RuntimeError("kernel exploded")

        block = plan_batched_jobs(plan_batch(sharing_jobs(3)))[0]
        pool = WorkerPool(kind="serial", batched_solve_fn=broken)
        outcomes = pool.run_batched(block)
        for result, tele in outcomes:
            assert result is not None and result.converged  # scalar rescued it
            assert tele.fallback_used
            assert any("kernel exploded" in msg for msg in tele.failures)
            assert tele.batch == 1

    def test_unconverged_column_degrades_alone(self):
        def partial(bjob):
            results = execute_batched_job(bjob)
            bad = results[1]
            results[1] = JobResult(
                eigenvalue=bad.eigenvalue,
                concentrations=bad.concentrations,
                method=bad.method,
                iterations=bad.iterations,
                residual=1.0,
                converged=False,
                tol=bad.tol,
            )
            return results

        block = plan_batched_jobs(plan_batch(sharing_jobs(3)))[0]
        pool = WorkerPool(kind="serial", batched_solve_fn=partial)
        outcomes = pool.run_batched(block)
        assert outcomes[0][1].route == "batched-power"
        assert outcomes[2][1].route == "batched-power"
        rescue_result, rescue_tele = outcomes[1]
        assert rescue_result is not None and rescue_result.converged
        assert rescue_tele.fallback_used
        assert any("did not converge" in msg for msg in rescue_tele.failures)

    def test_wrong_result_count_degrades_to_scalar(self):
        def truncated(bjob):
            return execute_batched_job(bjob)[:-1]

        block = plan_batched_jobs(plan_batch(sharing_jobs(2)))[0]
        pool = WorkerPool(kind="serial", batched_solve_fn=truncated)
        outcomes = pool.run_batched(block)
        assert all(r is not None for r, _ in outcomes)
        assert all(t.fallback_used for _, t in outcomes)


def wide_block(b):
    """One block of ``b`` shifted-power jobs sharing ``Q``, one random
    landscape seed per column."""
    jobs = [
        SolveJob(nu=NU, p=0.02, method="power", shift=True, tol=1e-10,
                 landscape="random", seed=s)
        for s in range(1, b + 1)
    ]
    (block,) = plan_batched_jobs(plan_batch(jobs))
    return block


def _recording(widths):
    def solve(bjob):
        widths.append(bjob.batch)
        return execute_batched_job(bjob)

    return solve


class TestSlicedBlocks:
    """A block on a multi-worker pool runs as one column slice per worker."""

    def test_sliced_block_bitwise_equal_to_unsliced(self):
        block = wide_block(16)
        whole = WorkerPool(kind="serial").run_batched(block)
        sliced = WorkerPool(2, kind="thread").run_batched(block)
        for (rw, tw), (rs, ts) in zip(whole, sliced):
            assert tw.batch == 16 and ts.batch == 8
            assert ts.route == "batched-power" and not ts.fallback_used
            assert (rs.eigenvalue, rs.residual, rs.iterations) == (
                rw.eigenvalue, rw.residual, rw.iterations
            )
            assert rs.concentrations.tobytes() == rw.concentrations.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [2, 3, 4, 5, 9])
    def test_slice_rule(self, workers, b):
        widths = []
        pool = WorkerPool(workers, kind="thread", batched_solve_fn=_recording(widths))
        outcomes = pool.run_batched(wide_block(b))
        k = max(1, min(workers, b // 2))
        assert len(widths) == k and sum(widths) == b
        assert min(widths) >= 2 and max(widths) - min(widths) <= 1
        assert sorted(t.batch for _, t in outcomes) == sorted(w for w in widths for _ in range(w))
        assert all(t.route == "batched-power" for _, t in outcomes)

    def test_serial_pool_never_slices(self):
        widths = []
        WorkerPool(4, kind="serial", batched_solve_fn=_recording(widths)).run_batched(
            wide_block(8)
        )
        assert widths == [8]

    def test_failing_slice_degrades_only_its_members(self):
        block = wide_block(4)
        first = block.jobs[0]

        def flaky(bjob):
            if first in bjob.jobs:
                raise RuntimeError("slice exploded")
            return execute_batched_job(bjob)

        outcomes = WorkerPool(2, kind="thread", batched_solve_fn=flaky).run_batched(block)
        for result, tele in outcomes[:2]:
            assert result is not None and result.converged
            assert tele.fallback_used and tele.batch == 1
            assert tele.failures[0] == "batched[B=2]: RuntimeError: slice exploded"
        for result, tele in outcomes[2:]:
            assert result is not None
            assert tele.route == "batched-power" and tele.batch == 2
            assert not tele.fallback_used and tele.failures == []

    def test_slice_timeout_sends_members_to_scalar_route(self):
        def sleepy(bjob):
            time.sleep(0.6)
            return execute_batched_job(bjob)

        pool = WorkerPool(2, kind="thread", timeout=0.2, retries=0, batched_solve_fn=sleepy)
        outcomes = pool.run_batched(wide_block(4))
        for result, tele in outcomes:
            # the scalar attempts queue behind the abandoned slices; their
            # budgets start when a worker picks them up
            assert result is not None and result.converged
            assert tele.route != "batched-power" and tele.batch == 1
            assert tele.fallback_used
            assert tele.failures[0].startswith("batched[B=2]: TimeoutError")

    def test_thread_service_matches_serial_service(self):
        jobs = [*wide_block(4).jobs, SolveJob(nu=NU, p=0.01),
                SolveJob(nu=NU, p=0.02, method="dense", landscape="random", seed=9)]
        serial = SolverService(kind="serial").submit(jobs)
        threaded = SolverService(kind="thread", workers=2).submit(jobs)
        assert serial.passed and threaded.passed
        assert serial.n_batched == threaded.n_batched == 4
        assert [t.batch for t in threaded.telemetry].count(2) == 4
        for rs, rt in zip(serial.results, threaded.results):
            assert (rt.eigenvalue, rt.residual, rt.iterations) == (
                rs.eigenvalue, rs.residual, rs.iterations
            )
            assert rt.concentrations.tobytes() == rs.concentrations.tobytes()


#: auto jobs on Kronecker landscapes under one uniform Q: the Kronecker
#: route serves them one by one, never as a power block
KRONECKER_JOBS = [SolveJob(nu=NU, p=0.02, landscape="kronecker", seed=s) for s in (1, 2)]


class TestServiceBatched:
    @pytest.mark.service_smoke
    @pytest.mark.parametrize(
        "jobs, n_batched",
        [(sharing_jobs(4), 4), (KRONECKER_JOBS, 0)],
        ids=["power", "kronecker-auto"],
    )
    def test_batched_and_scalar_services_agree(self, jobs, n_batched):
        batched = SolverService(kind="serial").submit(jobs)
        assert batched.passed and batched.n_batched == n_batched
        for job, rb in zip(jobs, batched.results):
            lone = SolverService(kind="serial").submit([job])
            assert lone.passed and lone.n_batched == 0
            rs = lone.results[0]
            assert (rb.eigenvalue, rb.residual, rb.iterations) == (
                rs.eigenvalue, rs.residual, rs.iterations
            )
            np.testing.assert_array_equal(rb.concentrations, rs.concentrations)

    @pytest.mark.service_smoke
    def test_batched_results_are_cached(self):
        service = SolverService(kind="serial")
        jobs = sharing_jobs(3)
        first = service.submit(jobs)
        second = service.submit(jobs)
        assert first.n_batched == 3 and first.n_cached == 0
        assert second.n_solved == 0 and second.n_cached == 3

    def test_mixed_manifest_batches_only_the_sharing_group(self):
        jobs = sharing_jobs(3) + [
            SolveJob(nu=NU, p=0.01),  # auto -> reduced, scalar
            SolveJob(nu=NU, p=0.02, method="dense", landscape="random", seed=9),
        ]
        report = SolverService(kind="serial").submit(jobs)
        assert report.passed
        assert report.n_batched == 3
        assert report.to_dict()["batched"] == 3


def _sharing_manifest(tmp_path, options=None):
    data = {
        "defaults": {"nu": NU, "p": 0.02, "method": "power", "tol": 1e-10},
        "jobs": [
            {"landscape": "single-peak", "peak": 2.0},
            {"landscape": "single-peak", "peak": 4.0},
            {"landscape": "random", "seed": 1},
        ],
        "options": options or {},
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestManifestAndCli:
    def test_manifest_batches_sharing_group(self, tmp_path):
        report = run_manifest(_sharing_manifest(tmp_path, options={"kind": "serial"}))
        assert report.passed and report.n_batched == 3

    def test_removed_batching_options_rejected(self, tmp_path):
        for key, value in (("batched", False), ("min_batch", 4)):
            path = _sharing_manifest(tmp_path, options={"kind": "serial", key: value})
            with pytest.raises(ValidationError, match="unknown manifest options"):
                run_manifest(path)

    def test_cli_batch_report_counts_batched_jobs(self, tmp_path, capsys):
        path = _sharing_manifest(tmp_path, options={"kind": "serial"})
        out_json = str(tmp_path / "report.json")
        assert main(["batch", path, "--quiet", "--json", out_json]) == 0
        report = json.loads(open(out_json).read())
        assert report["batched"] == 3
