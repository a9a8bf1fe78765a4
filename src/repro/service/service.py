"""The solver service facade: cache → scheduler → pool → report.

:class:`SolverService` turns the library into a queryable backend: hand
it a list of :class:`~repro.service.jobspec.SolveJob` requests (or a
JSON/YAML manifest) and it answers each one exactly once — deduplicated
by content hash, served from the tolerance-aware result cache when
possible, solved by the fault-tolerant worker pool otherwise — and
returns a machine-readable :class:`BatchReport`.

Manifest format
---------------
::

    {
      "defaults": {"nu": 8, "mutation": "uniform", "tol": 1e-10},
      "jobs": [
        {"p": 0.01, "landscape": "single-peak"},
        {"p": 0.02, "landscape": "random", "method": "power", "seed": 3}
      ],
      "options": {"workers": 4, "kind": "thread", "cache_dir": ".repro-cache"}
    }

Each job entry is a :meth:`SolveJob.from_dict` payload merged over
``defaults``.  ``options`` feeds the :class:`SolverService` constructor
(``workers``, ``kind``, ``timeout``, ``retries``, ``backoff``,
``capacity``, ``cache_dir``, ``threads``) and is overridable from the
CLI.  YAML manifests work when PyYAML is installed (the dependency is
optional and gated).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.service.cache import ResultCache
from repro.service.jobspec import JobResult, SolveJob
from repro.service.pool import JobTelemetry, WorkerPool
from repro.service.scheduler import plan_batch, plan_batched_jobs

__all__ = ["SolverService", "BatchReport", "load_manifest", "run_manifest"]

_OPTION_KEYS = (
    "workers",
    "kind",
    "timeout",
    "retries",
    "backoff",
    "capacity",
    "cache_dir",
    "threads",
)


@dataclass
class BatchReport:
    """Everything a batch run produced, JSON round-trip safe.

    ``results`` is aligned with the *original* request list (duplicates
    receive the shared result object); ``telemetry`` is aligned with
    the plan's unique jobs.
    """

    jobs: list[SolveJob]
    results: list[JobResult | None]
    telemetry: list[JobTelemetry]
    index_map: list[int]
    plan_stats: dict
    cache_stats: dict
    wall_seconds: float = 0.0

    # ------------------------------------------------------------- counts
    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_duplicates(self) -> int:
        return int(self.plan_stats.get("duplicates", 0))

    @property
    def n_solved(self) -> int:
        """Jobs that required a fresh solve."""
        return sum(1 for t in self.telemetry if t.status == "solved")

    @property
    def n_cached(self) -> int:
        """Unique jobs answered entirely from the result cache."""
        return sum(1 for t in self.telemetry if t.status == "cached")

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.telemetry if t.status == "failed")

    @property
    def n_fallbacks(self) -> int:
        """Jobs that completed on a degraded route."""
        return sum(1 for t in self.telemetry if t.fallback_used)

    @property
    def n_batched(self) -> int:
        """Unique jobs served by a multi-vector block solve."""
        return sum(1 for t in self.telemetry if t.batch > 1 and t.status == "solved")

    @property
    def passed(self) -> bool:
        """True when every request received a result."""
        return self.n_failed == 0 and all(r is not None for r in self.results)

    def failures(self) -> list[str]:
        """Every named failure across the batch (including the ones a
        fallback route subsequently recovered from)."""
        return [msg for t in self.telemetry for msg in t.failures]

    # -------------------------------------------------------------- views
    def entry(self, i: int) -> tuple[SolveJob, JobResult | None, JobTelemetry]:
        """Original request ``i`` with its result and telemetry."""
        return self.jobs[i], self.results[i], self.telemetry[self.index_map[i]]

    def to_dict(self) -> dict:
        return {
            "kind": "repro.BatchReport.v1",
            "plan": dict(self.plan_stats),
            "cache": dict(self.cache_stats),
            "wall_seconds": self.wall_seconds,
            "solved": self.n_solved,
            "cached": self.n_cached,
            "failed": self.n_failed,
            "fallbacks": self.n_fallbacks,
            "batched": self.n_batched,
            "passed": self.passed,
            "index_map": list(self.index_map),
            "jobs": [job.to_dict() for job in self.jobs],
            "results": [r.to_dict() if r is not None else None for r in self.results],
            "telemetry": [t.to_dict() for t in self.telemetry],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        if data.get("kind") != "repro.BatchReport.v1":
            raise ValidationError(
                f"not a batch report (kind={data.get('kind')!r})"
            )
        return cls(
            jobs=[SolveJob.from_dict(j) for j in data["jobs"]],
            results=[
                None if r is None else JobResult.from_dict(r) for r in data["results"]
            ],
            telemetry=[JobTelemetry.from_dict(t) for t in data["telemetry"]],
            index_map=[int(i) for i in data["index_map"]],
            plan_stats=dict(data["plan"]),
            cache_stats=dict(data["cache"]),
            wall_seconds=float(data["wall_seconds"]),
        )


class SolverService:
    """A queryable solver backend over cache + scheduler + worker pool.

    Cache misses that share an operator, form, ``tol`` and
    ``max_iterations`` are solved together in
    :class:`~repro.solvers.power.BlockPowerIteration` column slices
    whenever at least two of them are batchable power jobs; each gets
    the same bits it would get alone.  The blocks and the scalar jobs
    go to the pool in one :meth:`WorkerPool.run` call.

    Parameters
    ----------
    cache:
        An explicit :class:`~repro.service.cache.ResultCache` (shared
        between services, pre-warmed, …) — or ``None`` to build one
        from ``capacity``/``cache_dir``.
    pool:
        An explicit :class:`~repro.service.pool.WorkerPool` — or
        ``None`` to build one from ``workers``/``kind``/``timeout``/
        ``retries``/``backoff``/``threads`` (a pool built by hand also
        takes the ``solve_fn``/``batched_solve_fn`` injection hooks).
    threads:
        Panel-engine threads per worker for the fmmp routes (``None``
        → ``REPRO_NUM_THREADS`` or 1).  An execution knob only: it
        never enters a job's content hash, so cached results are shared
        across thread counts.  The pool caps its worker count at
        ``cpu_count // threads`` to avoid oversubscription.

    Examples
    --------
    >>> from repro.service import SolverService, SolveJob
    >>> service = SolverService(kind="serial")
    >>> report = service.submit([SolveJob(nu=6, p=0.01)] * 3)
    >>> (report.n_solved, report.n_duplicates)
    (1, 2)
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        pool: WorkerPool | None = None,
        capacity: int = 512,
        cache_dir: str | None = None,
        workers: int | None = None,
        kind: str = "thread",
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        threads: int | None = None,
    ):
        self.cache = cache or ResultCache(capacity, disk_dir=cache_dir)
        self.pool = pool or WorkerPool(
            workers,
            kind=kind,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            threads=threads,
        )

    # -------------------------------------------------------------- single
    def solve(self, job: SolveJob) -> JobResult:
        """Answer one job (cache-aware); raises if every route failed."""
        report = self.submit([job])
        result = report.results[0]
        if result is None:
            raise ValidationError(
                "job failed on every route: " + "; ".join(report.failures())
            )
        return result

    # --------------------------------------------------------------- batch
    def submit(self, jobs: list[SolveJob]) -> BatchReport:
        """Answer a batch of jobs: dedup → cache → pool → report."""
        t0 = time.perf_counter()
        plan = plan_batch(jobs)
        results: list[JobResult | None] = [None] * plan.n_unique
        telemetry: list[JobTelemetry | None] = [None] * plan.n_unique

        to_solve: list[int] = []
        for uidx, job in enumerate(plan.unique_jobs):
            cached, status = self.cache.lookup(job)
            if cached is not None:
                results[uidx] = cached
                telemetry[uidx] = JobTelemetry.cached(job, status)
            else:
                to_solve.append(uidx)

        if to_solve:
            blocks = plan_batched_jobs(plan, to_solve)
            covered = {i for block in blocks for i in block.indices}
            singles = [u for u in to_solve if u not in covered]
            units = blocks + [plan.unique_jobs[u] for u in singles]
            slots = [u for block in blocks for u in block.indices] + singles
            settled = []
            for uidx, (result, tele) in zip(slots, self.pool.run(units)):
                results[uidx] = result
                telemetry[uidx] = tele
                if result is not None:
                    settled.append((plan.unique_jobs[uidx], result))
            self.cache.store(settled)

        return BatchReport(
            jobs=plan.jobs,
            results=[results[u] for u in plan.index_map],
            telemetry=list(telemetry),
            index_map=list(plan.index_map),
            plan_stats=plan.to_dict(),
            cache_stats=self.cache.stats.to_dict(),
            wall_seconds=time.perf_counter() - t0,
        )


def _parse_manifest_text(text: str, path: str) -> dict:
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - environment-dependent
            raise ValidationError(
                "YAML manifests need the optional PyYAML dependency; "
                "use a JSON manifest instead"
            ) from exc
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("manifest must be a mapping with a 'jobs' list")
    return data


def load_manifest(path: str) -> tuple[list[SolveJob], dict]:
    """Parse a manifest file into ``(jobs, options)``.

    Every job entry is merged over the manifest's ``defaults`` mapping;
    unknown option keys are rejected so typos fail loudly.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read manifest {path!r}: {exc}") from exc
    data = _parse_manifest_text(text, path)
    raw_jobs = data.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ValidationError("manifest must contain a non-empty 'jobs' list")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValidationError("manifest 'defaults' must be a mapping")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("manifest 'options' must be a mapping")
    unknown = set(options) - set(_OPTION_KEYS)
    if unknown:
        raise ValidationError(
            f"unknown manifest options {sorted(unknown)}; expected {_OPTION_KEYS}"
        )
    jobs = []
    for i, entry in enumerate(raw_jobs):
        if not isinstance(entry, dict):
            raise ValidationError(f"manifest job #{i} must be a mapping, got {entry!r}")
        jobs.append(SolveJob.from_dict({**defaults, **entry}))
    return jobs, dict(options)


def run_manifest(path: str, **overrides) -> BatchReport:
    """One-shot manifest execution with option overrides.

    ``overrides`` (e.g. ``workers=4``, ``cache_dir="..."``) take
    precedence over the manifest's ``options`` block; ``None`` values
    are ignored so CLI flags pass through unconditionally.
    """
    jobs, options = load_manifest(path)
    merged = {**options, **{k: v for k, v in overrides.items() if v is not None}}
    unknown = set(merged) - set(_OPTION_KEYS)
    if unknown:
        raise ValidationError(f"unknown service options {sorted(unknown)}")
    service = SolverService(**merged)
    return service.submit(jobs)
