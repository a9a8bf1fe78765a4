"""Fault-injection tests for the worker pool (satellite 3).

Poisoned workers recover through retries; persistently failing routes
degrade gracefully down the fallback chain with the failure named in the
telemetry; timeouts are enforced and reported.
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.model.quasispecies import QuasispeciesModel
from repro.service import (
    LANDSCAPE_KINDS,
    MAX_DENSE_NU,
    MUTATION_KINDS,
    SolveJob,
    WorkerPool,
    execute_job,
    fallback_routes,
)
from repro.solvers.reduced import ReducedSolver


class TestFallbackRoutes:
    def test_reduced_jobs_have_no_fallback(self):
        routes = fallback_routes(SolveJob(nu=6, p=0.01))
        assert len(routes) == 1 and routes[0].resolved_method() == "reduced"

    def test_iterative_chain_ends_in_dense_for_small_nu(self):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="lanczos")
        methods = [r.method for r in fallback_routes(job)]
        assert methods[0] == "lanczos"
        assert "power" in methods
        assert methods[-1] == "dense"

    def test_shifted_power_inserted_for_uniform(self):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="arnoldi")
        routes = fallback_routes(job)
        shifted = [r for r in routes if r.method == "power" and r.shift]
        plain = [r for r in routes if r.method == "power" and not r.shift]
        assert shifted and plain

    def test_no_dense_for_large_nu(self):
        job = SolveJob(nu=MAX_DENSE_NU + 2, p=0.02, landscape="random", method="power")
        assert all(r.method != "dense" for r in fallback_routes(job))

    def test_no_shifted_insert_for_nonuniform(self):
        job = SolveJob(nu=5, p=0.02, landscape="random", mutation="persite", method="lanczos")
        assert all(not r.shift for r in fallback_routes(job))


class TestExecuteJob:
    @pytest.mark.service_smoke
    def test_reduced_matches_reduced_solver_bitwise(self):
        values = (2.0, 1.3, 1.1, 1.0, 1.0, 1.0, 1.0)
        job = SolveJob(nu=6, p=0.03, landscape="hamming", class_values=values)
        direct = ReducedSolver(6, 0.03, np.asarray(values)).solve()
        via_pool = execute_job(job)
        assert via_pool.eigenvalue == direct.eigenvalue
        assert via_pool.concentrations.tobytes() == direct.concentrations.tobytes()

    def test_full_route_contracts_to_classes(self):
        job = SolveJob(nu=5, p=0.02, landscape="random", method="power", tol=1e-11)
        result = execute_job(job)
        assert result.concentrations.shape == (6,)
        assert result.converged
        assert float(np.sum(result.concentrations)) == pytest.approx(1.0, abs=1e-10)

    def test_full_and_reduced_agree_on_single_peak(self):
        reduced = execute_job(SolveJob(nu=5, p=0.02))
        dense = execute_job(SolveJob(nu=5, p=0.02, method="dense"))
        np.testing.assert_allclose(dense.concentrations, reduced.concentrations, atol=1e-10)

    def test_shift_invert_route(self):
        job = SolveJob(nu=5, p=0.02, method="shift-invert", tol=1e-10)
        reduced = execute_job(SolveJob(nu=5, p=0.02))
        result = execute_job(job)
        assert result.eigenvalue == pytest.approx(reduced.eigenvalue, abs=1e-8)

    def test_built_landscape_freed_after_the_job(self, monkeypatch):
        """Nothing a job builds outlives it: once ``execute_job`` returns
        and a collection runs, its landscape is gone."""
        built = []
        build = SolveJob.build_landscape

        def tracked(job):
            landscape = build(job)
            built.append(weakref.ref(landscape))
            return landscape

        monkeypatch.setattr(SolveJob, "build_landscape", tracked)
        result = execute_job(SolveJob(nu=6, p=0.02, landscape="random", seed=3, method="power"))
        assert result.converged and built
        gc.collect()
        assert all(ref() is None for ref in built)


#: how the label of each route ``auto`` can take begins
_AUTO_LABELS = {"reduced": "Reduced(", "kronecker": "Kronecker", "power": "Pi(Fmmp"}


class TestAutoRoute:
    """``auto`` names one route, whether the planner, the model or the
    pool asks, and the pool's result carries the label of that route."""

    @pytest.mark.parametrize("mutation", MUTATION_KINDS)
    @pytest.mark.parametrize("landscape", [*LANDSCAPE_KINDS, "hamming"])
    def test_planner_model_and_pool_agree(self, landscape, mutation):
        values = (2.5, 1.5, 1.2, 1.0, 1.0, 1.0, 1.0) if landscape == "hamming" else None
        job = SolveJob(nu=6, p=0.02, landscape=landscape, mutation=mutation, class_values=values)
        model = QuasispeciesModel(job.build_landscape(), job.build_mutation())
        route = model._auto_method()
        assert job.resolved_method() == route
        result = execute_job(job)
        assert result.method.startswith(_AUTO_LABELS[route])
        assert result.method == model.solve().method


class _Poisoned:
    """Fails the first ``n_failures`` calls, then delegates to the real worker."""

    def __init__(self, n_failures: int):
        self.n_failures = n_failures
        self.calls = 0

    def __call__(self, job):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise RuntimeError(f"poisoned call #{self.calls}")
        return execute_job(job)


class TestFaultTolerance:
    @pytest.mark.service_smoke
    def test_poisoned_worker_recovers_via_retry(self):
        poison = _Poisoned(2)
        pool = WorkerPool(1, kind="serial", retries=2, backoff=0.001, solve_fn=poison)
        result, tele = pool.run([SolveJob(nu=5, p=0.02)])[0]
        assert result is not None and tele.status == "solved"
        assert tele.attempts == 3 and len(tele.failures) == 2
        assert not tele.fallback_used  # recovered on the requested route
        assert "poisoned call #1" in tele.failures[0]

    def test_persistent_route_failure_falls_back(self):
        def broken_then_real(job):
            if job.method == "lanczos":
                raise RuntimeError("lanczos backend down")
            return execute_job(job)

        job = SolveJob(nu=5, p=0.02, landscape="random", method="lanczos", tol=1e-10)
        pool = WorkerPool(1, kind="serial", retries=1, backoff=0.001, solve_fn=broken_then_real)
        result, tele = pool.run([job])[0]
        assert result is not None and tele.status == "solved"
        assert tele.fallback_used
        assert tele.route != "lanczos"
        # the original failure is named (once per attempt on that route)
        assert sum("lanczos backend down" in f for f in tele.failures) == 2

    def test_validation_error_not_retried(self):
        calls = {"n": 0}

        def structural(job):
            calls["n"] += 1
            raise ValidationError("structurally impossible")

        pool = WorkerPool(1, kind="serial", retries=3, backoff=0.001, solve_fn=structural)
        result, tele = pool.run([SolveJob(nu=5, p=0.02)])[0]  # reduced: single route
        assert result is None and tele.status == "failed"
        assert calls["n"] == 1  # no retries for structural errors

    def test_every_route_fails_yields_none_with_names(self):
        def always_broken(job):
            raise RuntimeError("worker on fire")

        job = SolveJob(nu=4, p=0.02, landscape="random", method="power", tol=1e-10)
        pool = WorkerPool(1, kind="serial", retries=0, backoff=0.001, solve_fn=always_broken)
        result, tele = pool.run([job])[0]
        assert result is None and tele.status == "failed"
        assert len(tele.failures) == len(fallback_routes(job))
        assert all("worker on fire" in f for f in tele.failures)

    def test_thread_timeout_enforced(self):
        def sleepy(job):
            time.sleep(5.0)

        pool = WorkerPool(
            2, kind="thread", timeout=0.05, retries=0, backoff=0.001, solve_fn=sleepy
        )
        outcomes = pool.run([SolveJob(nu=4, p=0.01), SolveJob(nu=4, p=0.02)])
        for result, tele in outcomes:
            assert result is None and tele.status == "failed"
            assert any("TimeoutError" in f for f in tele.failures)

    def test_timeout_counts_from_attempt_start(self):
        """Four 0.1 s jobs on two workers under a 0.15 s budget: the two
        that wait for a worker are not charged for the wait."""

        def tenth(job):
            time.sleep(0.1)
            return execute_job(job)

        jobs = [SolveJob(nu=4, p=p) for p in (0.01, 0.02, 0.03, 0.04)]
        pool = WorkerPool(2, kind="thread", timeout=0.15, retries=0, solve_fn=tenth)
        outcomes = pool.run(jobs)
        for result, tele in outcomes:
            assert result is not None and tele.status == "solved"
            assert tele.failures == []
        assert max(tele.queue_seconds for _, tele in outcomes) > 0.05

    def test_thread_pool_matches_serial(self):
        jobs = [SolveJob(nu=6, p=p) for p in (0.01, 0.02, 0.03)]
        serial = WorkerPool(1, kind="serial").run(jobs)
        threaded = WorkerPool(3, kind="thread").run(jobs)
        for (rs, _), (rt, _) in zip(serial, threaded):
            assert rs.concentrations.tobytes() == rt.concentrations.tobytes()

    def test_telemetry_round_trip(self):
        pool = WorkerPool(1, kind="serial")
        _, tele = pool.run([SolveJob(nu=5, p=0.02)])[0]
        from repro.service import JobTelemetry

        again = JobTelemetry.from_dict(tele.to_dict())
        assert again.key == tele.key and again.status == "solved"

    def test_pool_kind_validated(self):
        with pytest.raises(ValidationError):
            WorkerPool(kind="fiber")
        with pytest.raises(ValidationError):
            WorkerPool(0)
        with pytest.raises(ValidationError):
            WorkerPool(retries=-1)
        with pytest.raises(ValidationError):
            WorkerPool(timeout=0.0)


class TestProcessPool:
    def test_process_pool_solves_picklable_jobs(self):
        values = tuple([2.0] + [1.0] * 8)
        jobs = [
            SolveJob(nu=8, p=p, landscape="hamming", class_values=values, method="reduced")
            for p in (0.01, 0.02)
        ]
        outcomes = WorkerPool(2, kind="process", retries=0).run(jobs)
        serial = WorkerPool(1, kind="serial").run(jobs)
        for (rp, tp), (rs, _) in zip(outcomes, serial):
            assert tp.status == "solved"
            assert rp.concentrations.tobytes() == rs.concentrations.tobytes()
