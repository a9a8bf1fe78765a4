"""Solver service layer: scheduler, result cache, fault-tolerant pool.

This package turns the library into a queryable solver backend for the
sweep-shaped workloads that dominate quasispecies studies (error
threshold scans, treatment-planning grids, finite-population
comparisons):

:mod:`repro.service.jobspec`
    Canonical, content-hashed job specs (single source of truth shared
    with :mod:`repro.verify`) and the service-level result payload.
:mod:`repro.service.cache`
    Content-addressed result cache — in-memory LRU plus an optional
    on-disk tier — with tolerance-aware lookup and full accounting.
:mod:`repro.service.scheduler`
    Batch planner: dedup identical jobs (first-seen order), then gather
    the batchable power jobs that share a mutation operator into blocks.
:mod:`repro.service.pool`
    Worker pool with per-job timeouts, bounded retries with backoff,
    graceful route degradation, and structured telemetry.
:mod:`repro.service.service`
    The :class:`SolverService` facade, JSON/YAML manifests, and the
    machine-readable :class:`BatchReport`.

Entry points: ``repro-quasispecies batch manifest.json`` (CLI),
:func:`repro.model.parallel_sweep.parallel_sweep_error_rates` and the
:mod:`repro.verify` grid runner (both routed through this layer).
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.jobspec import (
    JOB_METHODS,
    LANDSCAPE_KINDS,
    MUTATION_KINDS,
    JobResult,
    ProblemSpec,
    SolveJob,
    canonical_payload,
    content_hash,
    split_groups,
)
from repro.service.pool import (
    MAX_DENSE_NU,
    JobTelemetry,
    WorkerPool,
    execute_job,
    execute_batched_job,
    fallback_routes,
)
from repro.service.scheduler import (
    BatchPlan,
    BatchedSolveJob,
    is_batchable,
    plan_batch,
    plan_batched_jobs,
)
from repro.service.service import (
    BatchReport,
    SolverService,
    load_manifest,
    run_manifest,
)

__all__ = [
    "JOB_METHODS",
    "LANDSCAPE_KINDS",
    "MUTATION_KINDS",
    "MAX_DENSE_NU",
    "BatchPlan",
    "BatchReport",
    "BatchedSolveJob",
    "CacheStats",
    "JobResult",
    "JobTelemetry",
    "ProblemSpec",
    "ResultCache",
    "SolveJob",
    "SolverService",
    "WorkerPool",
    "canonical_payload",
    "content_hash",
    "execute_job",
    "execute_batched_job",
    "fallback_routes",
    "is_batchable",
    "load_manifest",
    "plan_batch",
    "plan_batched_jobs",
    "run_manifest",
    "split_groups",
]
