"""Batch planner: dedup, then batched blocks of operator-sharing misses.

Given a manifest of :class:`~repro.service.jobspec.SolveJob` requests,
:func:`plan_batch` produces a :class:`BatchPlan`: jobs with identical
content hashes collapse to one physical solve, kept in first-seen
order, and the plan's ``index_map`` expands results back to the
original request order.  :func:`plan_batched_jobs` then gathers the
batchable power jobs (usually the cache misses) that share a mutation
operator, form, ``tol`` and ``max_iterations`` into
:class:`BatchedSolveJob` blocks for the pool.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.service.jobspec import SolveJob

__all__ = [
    "BatchPlan",
    "BatchedSolveJob",
    "plan_batch",
    "is_batchable",
    "plan_batched_jobs",
]


@dataclass
class BatchPlan:
    """The scheduler's output: what to solve, once each.

    Attributes
    ----------
    jobs:
        The original request list (duplicates included).
    unique_jobs:
        One job per distinct content hash, in first-seen order.
    index_map:
        ``index_map[i]`` is the index into ``unique_jobs`` serving
        original request ``i``.
    """

    jobs: list[SolveJob]
    unique_jobs: list[SolveJob]
    index_map: list[int]

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_unique(self) -> int:
        return len(self.unique_jobs)

    @property
    def n_duplicates(self) -> int:
        """Requests answered by another identical request's solve."""
        return len(self.jobs) - len(self.unique_jobs)

    def to_dict(self) -> dict:
        """Scalar summary for batch reports."""
        return {
            "jobs": self.n_jobs,
            "unique_jobs": self.n_unique,
            "duplicates": self.n_duplicates,
        }


@dataclass(frozen=True)
class BatchedSolveJob:
    """A block of operator-sharing jobs to solve in one butterfly stream.

    Every member shares the mutation operator ``Q`` (same
    :meth:`~repro.service.jobspec.SolveJob.operator_key`), the
    eigenproblem form, ``tol`` and ``max_iterations``; the landscapes
    differ per column.  The pool
    executes it through
    :class:`~repro.solvers.power.BlockPowerIteration` on one
    :class:`~repro.operators.batched.BatchedFmmp`, with per-column
    shifts and per-column convergence bookkeeping.

    Attributes
    ----------
    key:
        The shared operator key (group identity).
    form:
        The shared eigenproblem form.
    indices:
        Positions of the member jobs in ``BatchPlan.unique_jobs``.
    jobs:
        The member jobs, aligned with ``indices``.
    """

    key: str
    form: str
    indices: tuple[int, ...]
    jobs: tuple[SolveJob, ...]

    @property
    def batch(self) -> int:
        return len(self.jobs)

    @property
    def tol(self) -> float:
        """The members' shared residual tolerance."""
        return self.jobs[0].tol

    @property
    def max_iterations(self) -> int:
        """The members' shared iteration cap."""
        return int(self.jobs[0].max_iterations)

    def label(self) -> str:
        first = self.jobs[0]
        return (
            f"batched[B={self.batch}] nu={first.nu} p={first.p:g} "
            f"mutation={first.mutation} form={self.form}"
        )


def is_batchable(job: SolveJob) -> bool:
    """Whether ``job`` can ride the batched multi-vector power route.

    Batchable jobs are full-size power solves on the Fmmp operator —
    the route :class:`~repro.operators.batched.BatchedFmmp` implements.
    Reduced/dense/Krylov/kronecker routes keep their scalar paths (they
    are either already (ν+1)-sized or need per-job Krylov state).
    """
    return job.resolved_method() == "power" and job.operator == "fmmp"


def plan_batched_jobs(
    plan: BatchPlan, subset: Sequence[int] | None = None
) -> list[BatchedSolveJob]:
    """Gather a plan's batchable jobs into batched blocks.

    Walks ``plan.unique_jobs`` (only the indices in ``subset`` when
    given — the service passes the cache misses), keeps the batchable
    ones, groups them by operator key, eigenproblem form (one
    :class:`~repro.operators.batched.BatchedFmmp` has a single form),
    ``tol`` and ``max_iterations`` (so a job iterates exactly as far as
    it would alone), and emits a :class:`BatchedSolveJob` for every
    group of at least two jobs, in first-seen order.  A lone job stays
    on the scalar route, which gives it the same bits.
    """
    groups: dict[tuple, list[int]] = {}
    for idx in range(plan.n_unique) if subset is None else subset:
        job = plan.unique_jobs[idx]
        if is_batchable(job):
            key = (job.operator_key(), job.form, job.tol, job.max_iterations)
            groups.setdefault(key, []).append(idx)
    return [
        BatchedSolveJob(
            key=key[0],
            form=key[1],
            indices=tuple(indices),
            jobs=tuple(plan.unique_jobs[i] for i in indices),
        )
        for key, indices in groups.items()
        if len(indices) >= 2
    ]


def plan_batch(jobs: list[SolveJob]) -> BatchPlan:
    """Plan a batch: one unique job per content hash, in first-seen order."""
    unique_jobs: list[SolveJob] = []
    index_map: list[int] = []
    seen: dict[str, int] = {}
    for job in jobs:
        key = job.content_key()
        if key not in seen:
            seen[key] = len(unique_jobs)
            unique_jobs.append(job)
        index_map.append(seen[key])
    return BatchPlan(jobs=list(jobs), unique_jobs=unique_jobs, index_map=index_map)
