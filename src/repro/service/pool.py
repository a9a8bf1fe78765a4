"""Fault-tolerant worker pool: timeouts, retries, graceful degradation.

The pool turns one :class:`~repro.service.jobspec.SolveJob` into one
:class:`~repro.service.jobspec.JobResult`, surviving the failure modes a
serving backend actually sees:

* **Per-job timeouts** — each attempt gets a wall-clock budget,
  counted from the attempt's start (``thread``/``process`` executors;
  a timed-out thread attempt is abandoned, a timed-out process
  attempt's worker is left to the executor to recycle).
* **Bounded retries with backoff** — transient failures (a poisoned
  worker, a flaky allocation) are retried up to ``retries`` times per
  route with exponentially growing backoff.
* **Graceful degradation** — when a route keeps failing, the pool walks
  a structural fallback chain (e.g. ``shift-invert`` → shifted power →
  plain power → dense for small ν) so a job completes whenever *any*
  applicable route can, with the failure named in the telemetry.
* **Structured telemetry** — queue time, solve time, iterations,
  attempts, named failures, and the route that finally served the job.

Scalar jobs and the column slices of batched blocks are the work units
of one executor wave, slices first, so a block keeps every worker busy
while the scalar jobs queue behind it.

Each attempt builds its own mutation model and landscape and drops them
when it returns; nothing built for a job outlives it.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ValidationError
from repro.service.jobspec import JobResult, SolveJob
from repro.service.scheduler import BatchedSolveJob

__all__ = [
    "MAX_DENSE_NU",
    "JobTelemetry",
    "WorkerPool",
    "execute_job",
    "execute_batched_job",
    "fallback_routes",
]

#: largest chain length for which the dense fallback route is allowed
MAX_DENSE_NU = 10

_POOL_KINDS = ("serial", "thread", "process")

#: with a timeout set, how often (seconds) the pool looks for queued
#: attempts that a worker has started, whose budget then starts counting
_POLL_S = 0.005


@dataclass
class JobTelemetry:
    """Structured per-job execution record.

    ``status`` is ``"solved"`` (a worker produced the result),
    ``"cached"`` (the service answered from the result cache) or
    ``"failed"`` (every route in the fallback chain failed — the named
    failures are in ``failures``).

    ``batch`` is the block width the job was solved in: 1 for a scalar
    solve, B > 1 when the job rode a column slice of a batched
    :class:`~repro.service.scheduler.BatchedSolveJob` (its
    ``solve_seconds`` is then the slice's wall-clock divided by its
    width B — the amortized per-column cost).
    """

    key: str
    label: str
    status: str = "solved"
    route: str = ""
    attempts: int = 0
    failures: list[str] = field(default_factory=list)
    fallback_used: bool = False
    queue_seconds: float = 0.0
    solve_seconds: float = 0.0
    iterations: int = 0
    cache: str = "miss"
    batch: int = 1

    @classmethod
    def cached(cls, job: SolveJob, status: str) -> "JobTelemetry":
        """Telemetry for a cache-served job (no worker involved)."""
        return cls(
            key=job.cache_key(),
            label=job.label(),
            status="cached",
            route="cache",
            cache=status,
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "route": self.route,
            "attempts": self.attempts,
            "failures": list(self.failures),
            "fallback_used": self.fallback_used,
            "queue_seconds": self.queue_seconds,
            "solve_seconds": self.solve_seconds,
            "iterations": self.iterations,
            "cache": self.cache,
            "batch": self.batch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobTelemetry":
        return cls(**data)


# ------------------------------------------------------------ execution
def _route_label(job: SolveJob) -> str:
    method = job.method if job.method != "auto" else f"auto->{job.resolved_method()}"
    return method


def fallback_routes(job: SolveJob) -> list[SolveJob]:
    """The degradation chain for ``job``: requested route first, then
    progressively simpler structurally-applicable routes.

    The chain (deduplicated by method) is

    1. the requested route,
    2. the shifted power iteration (uniform mutation only — the
       paper's default accelerated route),
    3. the plain power iteration (always applicable),
    4. the dense eigendecomposition for ν ≤ :data:`MAX_DENSE_NU`.

    Reduced jobs stay reduced: the (ν+1) route is exact and has no
    cheaper fallback, so only the dense *reduced-size* path behind
    :class:`~repro.solvers.reduced.ReducedSolver` applies.
    """
    chain = [job]
    if job.resolved_method() == "reduced":
        return chain
    seen = {job.method}

    def add(**changes) -> None:
        candidate = job.with_(**changes)
        if candidate.method not in seen:
            seen.add(candidate.method)
            chain.append(candidate)

    if job.mutation == "uniform" and job.p != 0.0:
        add(method="power", operator="fmmp", form="right", shift=True, dmax=None)
    # a "power" entry above shadows this one via the method dedup, so
    # force the plain variant through a distinct method check
    plain = job.with_(method="power", operator="fmmp", form="right", shift=False, dmax=None)
    if all(not _same_route(plain, c) for c in chain):
        chain.append(plain)
    if job.nu <= MAX_DENSE_NU:
        add(method="dense", operator="fmmp", form="right", shift=False, dmax=None)
    return chain


def _same_route(a: SolveJob, b: SolveJob) -> bool:
    return (
        a.method == b.method
        and a.operator == b.operator
        and a.form == b.form
        and a.shift == b.shift
        and a.dmax == b.dmax
    )


def _result_gamma(res, nu: int) -> np.ndarray:
    """Error-class concentrations from any route's result object."""
    from repro.model.concentrations import class_concentrations
    from repro.solvers.kron_solver import KroneckerSolveResult

    if isinstance(res, KroneckerSolveResult):
        return res.eigenvector.class_concentrations()
    conc = np.asarray(res.concentrations)
    if conc.shape[0] == nu + 1:
        return conc
    return class_concentrations(conc, nu)


def _solve_shift_invert(job: SolveJob) -> JobResult:
    from repro.model.concentrations import class_concentrations
    from repro.operators.dense_w import convert_eigenvector
    from repro.operators.fmmp import Fmmp
    from repro.solvers.shift_invert import cg_inverse_iteration

    mutation, landscape = job.build_mutation(), job.build_landscape()
    if not mutation.is_symmetric:
        raise ValidationError(
            "shift-invert (CG inverse iteration) needs the symmetric form, "
            "which exists only for symmetric mutation models"
        )
    op = Fmmp(mutation, landscape, form="symmetric")
    res = cg_inverse_iteration(
        op,
        start=np.sqrt(landscape.values()),
        mu=landscape.fmax * 1.05,
        tol=max(job.tol, 1e-13),
        max_outer=min(job.max_iterations, 200),
    )
    conc = convert_eigenvector(res.eigenvector, landscape, "symmetric")
    return JobResult(
        eigenvalue=float(res.eigenvalue),
        concentrations=class_concentrations(conc, job.nu),
        method=res.method,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        tol=job.tol,
    )


def execute_job(job: SolveJob, *, threads: int | None = None) -> JobResult:
    """Solve one job synchronously (the pool's default worker body).

    Module-level and picklable, so it crosses process boundaries; the
    reduced route reproduces
    :class:`~repro.solvers.reduced.ReducedSolver` output bit-for-bit
    (the parallel sweep's regression tests rely on it).

    ``threads`` (pool-level, **not** part of the job's content hash —
    thread count must never change what a job computes, only how fast)
    shares the butterfly's sweeps among threads for the iterative fmmp
    routes.  Bound via ``functools.partial`` so the partial still
    pickles into process workers.
    """
    from repro.model.quasispecies import QuasispeciesModel
    from repro.solvers.reduced import ReducedSolver

    method = job.resolved_method()
    if method == "reduced":
        if job.landscape == "hamming":
            target = np.asarray(job.class_values, dtype=np.float64)
        else:
            target = job.build_landscape()
        res = ReducedSolver(job.nu, float(job.p), target).solve()
        return JobResult(
            eigenvalue=float(res.eigenvalue),
            concentrations=res.concentrations,
            method=res.method,
            iterations=res.iterations,
            residual=res.residual,
            converged=res.converged,
            tol=job.tol,
        )
    if method == "shift-invert":
        return _solve_shift_invert(job)

    mutation, landscape = job.build_mutation(), job.build_landscape()
    model = QuasispeciesModel(landscape, mutation)
    res = model.solve(
        job.method,
        operator=job.operator,
        form=job.form,
        dmax=job.dmax,
        tol=job.tol,
        shift=job.shift,
        max_iterations=job.max_iterations,
        threads=threads,
    )
    return JobResult(
        eigenvalue=float(res.eigenvalue),
        concentrations=_result_gamma(res, job.nu),
        method=getattr(res, "method", method),
        iterations=int(getattr(res, "iterations", 0)),
        residual=float(getattr(res, "residual", 0.0)),
        converged=bool(getattr(res, "converged", True)),
        tol=job.tol,
    )


def execute_batched_job(bjob, *, threads: int | None = None) -> list:
    """Solve a :class:`~repro.service.scheduler.BatchedSolveJob`.

    Builds the shared mutation operator once, stacks the per-job
    landscapes into one :class:`~repro.operators.batched.BatchedFmmp`,
    and runs the lock-step
    :class:`~repro.solvers.power.BlockPowerIteration` with per-column
    shifts.  Returns one :class:`~repro.service.jobspec.JobResult` per
    member job, in order, each numerically identical to what
    :func:`execute_job` returns for that job alone.  Module-level and
    picklable.
    """
    from repro.model.concentrations import class_concentrations
    from repro.operators.batched import BatchedFmmp
    from repro.operators.shifted import resolve_shift
    from repro.solvers.power import BlockPowerIteration

    jobs = list(bjob.jobs)
    if not jobs:
        raise ValidationError("batched job has no members")
    mutation = jobs[0].build_mutation()
    landscapes = [job.build_landscape() for job in jobs]
    shifts = np.array(
        [
            resolve_shift(mutation, land, job.shift, auto=job.method == "auto") or 0.0
            for job, land in zip(jobs, landscapes)
        ]
    )
    op = BatchedFmmp(mutation, landscapes, form=bjob.form, threads=threads)
    solver = BlockPowerIteration(
        op, shifts=shifts, tol=bjob.tol, max_iterations=bjob.max_iterations
    )
    label = "BPi(Fmmp, shifted)" if np.any(shifts != 0.0) else "BPi(Fmmp)"
    block = solver.solve(raise_on_fail=False, method_name=label)
    return [
        JobResult(
            eigenvalue=float(res.eigenvalue),
            concentrations=class_concentrations(res.concentrations, job.nu),
            method=res.method,
            iterations=int(res.iterations),
            residual=float(res.residual),
            converged=bool(res.converged),
            tol=job.tol,
        )
        for job, res in zip(jobs, block.columns)
    ]


def _timed_call(fn, job):
    """Worker wrapper measuring start/end stamps (module-level so it
    pickles into process workers)."""
    t0 = time.perf_counter()
    result = fn(job)
    return result, t0, time.perf_counter()


class _InlineExecutor:
    """Runs each call at submission, on the calling thread; the wave
    loop's executor for serial pools and single-worker runs."""

    def submit(self, fn, *args) -> Future:
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - stored, as an executor would
            fut.set_exception(exc)
        return fut

    def __enter__(self) -> "_InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None


# ----------------------------------------------------------------- pool
@dataclass
class _JobState:
    job: SolveJob
    routes: list[SolveJob]
    slot: int = 0  # position of the job's outcome in ``WorkerPool.run``'s list
    route_idx: int = 0
    attempt: int = 0
    telemetry: JobTelemetry = None  # set in __post_init__

    def __post_init__(self) -> None:
        self.telemetry = JobTelemetry(key=self.job.cache_key(), label=self.job.label())

    @classmethod
    def degraded(cls, job: SolveJob, slot: int, note: str) -> "_JobState":
        """A batched member re-queued on its scalar route chain, with
        the block failure ``note`` named first in its telemetry."""
        state = cls(job, fallback_routes(job), slot)
        state.telemetry.failures.append(note)
        state.telemetry.fallback_used = True
        return state

    @property
    def current(self) -> SolveJob:
        return self.routes[self.route_idx]

    def record_failure(self, message: str, retries: int) -> bool:
        """Advance retry/fallback state; returns True when exhausted.

        ``retries`` is the per-route retry budget — pass 0 for
        structural errors (retrying a :class:`ValidationError` cannot
        succeed; fall straight through to the next route).
        """
        self.telemetry.failures.append(f"{_route_label(self.current)}: {message}")
        self.attempt += 1
        if self.attempt > retries:
            self.route_idx += 1
            self.attempt = 0
        return self.route_idx >= len(self.routes)

    def finish(self, result_tuple, submit_time: float) -> JobResult:
        result, t_start, t_end = result_tuple
        tele = self.telemetry
        tele.status = "solved"
        tele.route = _route_label(self.current)
        tele.fallback_used = tele.fallback_used or self.route_idx > 0
        tele.queue_seconds = max(0.0, t_start - submit_time)
        tele.solve_seconds = t_end - t_start
        tele.iterations = result.iterations
        return result

    def fail(self) -> None:
        self.telemetry.status = "failed"
        self.telemetry.route = ""


@dataclass
class _Slice:
    """Adjacent columns of a batched block, solved as one work unit;
    ``slots`` are its members' positions in ``WorkerPool.run``'s list."""

    bjob: BatchedSolveJob
    slots: range


def _slices(bjob: BatchedSolveJob, slots: range, workers: int) -> list[_Slice]:
    """Cut ``bjob`` into ``k = min(workers, ⌊B/2⌋)`` near-equal column
    slices (the whole block when ``k ≤ 1``), so no slice has one column
    and at most one block's worth of columns is in flight per wave.  The
    block power iteration is width-invariant, so every column gets the
    bits the whole block would give it."""
    b = bjob.batch
    k = max(1, min(workers, b // 2))
    cuts = [b * i // k for i in range(k + 1)]
    return [
        _Slice(replace(bjob, indices=bjob.indices[lo:hi], jobs=bjob.jobs[lo:hi]), slots[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])
    ]


class WorkerPool:
    """Execute solve jobs with retries, timeouts and fallback routes.

    Parameters
    ----------
    workers:
        Worker count (default ``os.cpu_count()``, capped at the batch
        size).
    kind:
        ``"thread"`` (default; LAPACK/BLAS release the GIL), ``"process"``
        (full isolation — required for hard timeout enforcement), or
        ``"serial"`` (in-line, deterministic; timeouts not enforced).
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited),
        counted from the moment a worker starts the attempt, not from
        its submission, so time spent queued behind other attempts is
        never charged.
    retries:
        Extra attempts per route before falling back (0 = no retry).
    backoff:
        Base backoff in seconds; wave ``k`` of retries sleeps
        ``backoff·2^k`` (capped at 1 s).
    solve_fn:
        Worker body override — used by fault-injection tests and by
        any deployment that wraps :func:`execute_job` (must be
        picklable for ``kind="process"``).
    batched_solve_fn:
        Override for the batched-block worker body (defaults to
        :func:`execute_batched_job`); fault-injection tests use it to
        exercise the batched → scalar degradation path.
    threads:
        Panel-engine threads per worker (``None`` →
        ``REPRO_NUM_THREADS`` or 1).  Bound into the default worker
        bodies with ``functools.partial`` — the thread count is an
        execution knob, never part of a job's content hash.  When
        ``threads > 1`` the effective worker count is capped at
        ``cpu_count // threads`` (at least 1) so pool workers × engine
        threads never oversubscribe the host.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        kind: str = "thread",
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        solve_fn=None,
        batched_solve_fn=None,
        threads: int | None = None,
    ):
        if kind not in _POOL_KINDS:
            raise ValidationError(f"kind must be one of {_POOL_KINDS}, got {kind!r}")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        from repro.transforms.parallel import resolve_threads

        self.workers = workers
        self.kind = kind
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.threads = resolve_threads(threads)
        if solve_fn is None and self.threads > 1:
            solve_fn = functools.partial(execute_job, threads=self.threads)
        if batched_solve_fn is None and self.threads > 1:
            batched_solve_fn = functools.partial(
                execute_batched_job, threads=self.threads
            )
        self.solve_fn = solve_fn or execute_job
        self.batched_solve_fn = batched_solve_fn or execute_batched_job

    def effective_workers(self, n_jobs: int) -> int:
        """Worker count for ``n_jobs``: the requested (or cpu_count)
        figure, capped at the job count and — when each worker drives a
        multi-threaded panel engine — at ``cpu_count // threads`` so
        the pool never oversubscribes the host."""
        cpus = os.cpu_count() or 1
        workers = min(n_jobs, self.workers or cpus)
        if self.threads > 1:
            workers = min(workers, max(1, cpus // self.threads))
        return max(1, workers)

    # ----------------------------------------------------------------- run
    def run(
        self, jobs: list[SolveJob | BatchedSolveJob]
    ) -> list[tuple[JobResult | None, JobTelemetry]]:
        """Solve ``jobs`` — :class:`SolveJob`\\ s and
        :class:`~repro.service.scheduler.BatchedSolveJob` blocks — as the
        work units of one wave loop.

        Returns ``(result, telemetry)`` pairs aligned with ``jobs``, a
        block expanded into one pair per member, in order.  A ``None``
        result means every route failed; the telemetry names each
        failure.

        Each block is cut into column slices, one per worker
        (:func:`_slices`), submitted before the scalar jobs.  Degradation
        is per failure scope: a slice that raises or times out re-queues
        **every** member of that slice on its scalar route chain in the
        next wave, and a slice's unconverged columns re-queue **those
        columns only** — the other columns keep their batched results.
        Each re-queued member's telemetry names the slice failure and
        sets ``fallback_used``.
        """
        blocks, states, n = [], [], 0
        for job in jobs:
            if isinstance(job, BatchedSolveJob):
                blocks.append((job, range(n, n + job.batch)))
                n += job.batch
            else:
                states.append(_JobState(job, fallback_routes(job), n))
                n += 1
        workers = 1 if self.kind == "serial" else self.effective_workers(n)
        slices = [piece for bjob, slots in blocks for piece in _slices(bjob, slots, workers)]
        return self._run_waves(slices + states, n, workers)

    def run_batched(self, bjob) -> list[tuple[JobResult | None, JobTelemetry]]:
        """Execute one :class:`~repro.service.scheduler.BatchedSolveJob`:
        the one-block case of :meth:`run`.  The returned
        ``(result, telemetry)`` pairs align with ``bjob.jobs``; a served
        column has ``route="batched-power"`` and its slice width in
        ``telemetry.batch``."""
        return self.run([bjob])

    # --------------------------------------------------------------- waves
    def _executor(self, workers: int):
        if workers == 1:
            return _InlineExecutor()
        if self.kind == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        # Process workers pin their BLAS pools to one thread on
        # startup: the pool (and, with threads > 1, each worker's
        # panel engine) owns the parallelism — nested BLAS teams
        # would oversubscribe the host (see repro.util.blas).
        from repro.util.blas import pin_blas_env

        return ProcessPoolExecutor(max_workers=workers, initializer=pin_blas_env)

    def _run_waves(
        self, units: list, n: int, workers: int
    ) -> list[tuple[JobResult | None, JobTelemetry]]:
        """Submit every unit of a wave, settle them all, then run the
        next wave: retries, and batched members re-queued as scalar jobs."""
        outcomes: list[tuple[JobResult | None, JobTelemetry] | None] = [None] * n
        wave = 0
        with self._executor(workers) as pool:
            while units:
                attempts = []
                for unit in units:
                    if isinstance(unit, _Slice):
                        fn, arg = self.batched_solve_fn, unit.bjob
                    else:
                        unit.telemetry.attempts += 1
                        fn, arg = self.solve_fn, unit.current
                    submitted = time.perf_counter()
                    attempts.append((unit, submitted, pool.submit(_timed_call, fn, arg)))
                units, retrying = [], False
                for (unit, submitted, _), out in zip(attempts, self._settle(attempts)):
                    if isinstance(unit, _Slice):
                        units += self._settle_slice(unit, out, submitted, outcomes)
                    elif not isinstance(out, Exception):
                        outcomes[unit.slot] = (unit.finish(out, submitted), unit.telemetry)
                    else:
                        budget = 0 if isinstance(out, ValidationError) else self.retries
                        if unit.record_failure(f"{type(out).__name__}: {out}", budget):
                            unit.fail()
                            outcomes[unit.slot] = (None, unit.telemetry)
                        else:
                            units.append(unit)
                            retrying = True
                if retrying:
                    time.sleep(min(1.0, self.backoff * (2**wave)))
                    wave += 1
        return outcomes

    def _settle(self, attempts: list) -> list:
        """Each attempt's ``_timed_call`` output, or the exception it
        raised.  With a ``timeout``, an attempt still running that long
        after a worker started it is abandoned as a :class:`TimeoutError`
        (a thread attempt keeps running; its result is discarded).  A
        start is stamped when the executor marks the future running,
        observed at least every ``_POLL_S`` seconds."""
        futures = [fut for _, _, fut in attempts]
        expired = set()
        if self.timeout is not None:
            started: dict[Future, float] = {}
            pending = set(futures)
            while pending:
                now = time.perf_counter()
                for fut in pending - started.keys():
                    if fut.running():
                        started[fut] = now
                running = pending & started.keys()
                late = {f for f in running if now - started[f] >= self.timeout and not f.done()}
                expired |= late
                pending -= late
                waits = [started[f] + self.timeout - now for f in running - late]
                if len(waits) < len(pending):  # a queued attempt may start meanwhile
                    waits.append(_POLL_S)
                wait(pending, timeout=max(0.0, min(waits, default=0.0)), return_when=FIRST_COMPLETED)
                pending = {fut for fut in pending if not fut.done()}
        outs = []
        for fut in futures:
            if fut in expired:
                outs.append(TimeoutError(f"exceeded {self.timeout:g}s budget"))
                continue
            try:
                outs.append(fut.result())
            except Exception as exc:  # noqa: BLE001 - a failing attempt is data here
                outs.append(exc)
        return outs

    def _settle_slice(self, unit: _Slice, out, submitted: float, outcomes: list) -> list[_JobState]:
        """Record a slice's converged columns in ``outcomes``; returns the
        members to re-queue as scalar jobs (all of them when the slice
        failed)."""
        jobs, slots = unit.bjob.jobs, unit.slots
        b = len(jobs)
        if not isinstance(out, Exception) and len(out[0]) != b:
            out = ValidationError(f"batched worker returned {len(out[0])} results for {b} jobs")
        if isinstance(out, Exception):
            note = f"batched[B={b}]: {type(out).__name__}: {out}"
            return [_JobState.degraded(job, slot, note) for job, slot in zip(jobs, slots)]
        results, t_start, t_end = out
        note = (
            f"batched-power: column did not converge within "
            f"{unit.bjob.max_iterations} sweeps"
        )
        requeue = []
        for job, slot, result in zip(jobs, slots, results):
            if not result.converged:
                requeue.append(_JobState.degraded(job, slot, note))
                continue
            tele = JobTelemetry(
                key=job.cache_key(),
                label=job.label(),
                status="solved",
                route="batched-power",
                attempts=1,
                queue_seconds=max(0.0, t_start - submitted),
                solve_seconds=(t_end - t_start) / b,
                iterations=result.iterations,
                batch=b,
            )
            outcomes[slot] = (result, tele)
        return requeue
