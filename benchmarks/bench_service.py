"""Solver-service overhead and cache speedup on sweep-shaped batches.

The service layer only pays for itself if its bookkeeping (hashing,
planning, cache lookups) is negligible next to the solves and the
dedup + cache machinery converts repeated work into hits.  This bench
measures both on a 100-job error-rate sweep in which half the requests
are duplicates (the ISSUE workload):

* **scheduler overhead** — planning 100 jobs must cost well under a
  millisecond per job;
* **naive vs service (cold)** — solving every request one by one versus
  one deduplicated batch: the 50%-duplicate manifest must come in at
  least ~2× cheaper because each unique job is solved exactly once;
* **cold vs warm** — re-submitting the same batch against the populated
  cache must be at least **5× faster** (the acceptance criterion; in
  practice it is orders of magnitude);
* **cold phase split** — where the timed cold submit spends its time:
  planning (dedup, grouping, blocks), cache lookups, the pool phase and
  the cache stores, each summed over its calls by wrappers around
  exactly those calls (about a microsecond each); the rest of the submit
  is bookkeeping.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.service.service as service_module
from conftest import report
from repro.reporting import render_table
from repro.service import SolverService, SolveJob, plan_batch

NU = 20
N_UNIQUE = 50
DUPLICATES = 50  # 50% of the 100-job manifest repeats an earlier job


def _sweep_jobs() -> list[SolveJob]:
    """A 100-job sweep manifest with 50% duplicates."""
    values = tuple([2.0] + [1.0] * NU)
    rates = np.linspace(0.001, 0.05, N_UNIQUE)
    unique = [
        SolveJob(nu=NU, p=float(p), landscape="hamming", class_values=values,
                 method="reduced")
        for p in rates
    ]
    return unique + unique[:DUPLICATES]


@contextmanager
def phase_split(service: SolverService):
    """Sum the wall time ``service.submit`` spends in each phase, by name:
    ``plan``, ``lookups``, ``pool`` and ``stores``."""
    totals = dict.fromkeys(("plan", "lookups", "pool", "stores"), 0.0)

    def timed(phase, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[phase] += time.perf_counter() - t0

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("plan_batch", "plan_batched_jobs"):
            mp.setattr(service_module, name, timed("plan", getattr(service_module, name)))
        mp.setattr(service.cache, "lookup", timed("lookups", service.cache.lookup))
        mp.setattr(service.cache, "store", timed("stores", service.cache.store))
        mp.setattr(service.pool, "run", timed("pool", service.pool.run))
        yield totals


def test_scheduler_overhead(benchmark):
    jobs = _sweep_jobs()
    plan = benchmark(lambda: plan_batch(jobs))
    assert plan.n_unique == N_UNIQUE
    assert plan.n_duplicates == DUPLICATES


def test_cache_speedup_on_duplicate_sweep(benchmark):
    jobs = _sweep_jobs()

    # naive: every request solved individually, no dedup, no cache
    from repro.service import execute_job

    t0 = time.perf_counter()
    for job in jobs:
        execute_job(job)
    naive_s = time.perf_counter() - t0

    # cold service: dedup + cache, each unique job solved once
    service = SolverService(kind="serial", capacity=256)
    with phase_split(service) as phases:
        t0 = time.perf_counter()
        cold = service.submit(jobs)
        cold_s = time.perf_counter() - t0
    assert cold.passed and cold.n_solved == N_UNIQUE

    # warm service: the benchmark target — everything from cache
    warm = benchmark(lambda: service.submit(jobs))
    assert warm.n_solved == 0 and warm.n_cached == N_UNIQUE
    t0 = time.perf_counter()
    service.submit(jobs)
    warm_s = time.perf_counter() - t0

    cold_speedup = naive_s / cold_s
    warm_speedup = cold_s / warm_s
    rows = [
        ["jobs in manifest", "100"],
        ["unique jobs", str(N_UNIQUE)],
        ["naive per-request loop", f"{naive_s * 1e3:.1f} ms"],
        ["service, cold cache", f"{cold_s * 1e3:.1f} ms"],
        ["service, warm cache", f"{warm_s * 1e3:.1f} ms"],
        ["cold speedup vs naive", f"{cold_speedup:.1f}x"],
        ["warm speedup vs cold", f"{warm_speedup:.1f}x"],
    ]
    phases["other"] = cold_s - sum(phases.values())
    rows += [[f"cold phase: {name}", f"{sec * 1e3:.1f} ms"] for name, sec in phases.items()]
    report(
        "service_cache_speedup",
        render_table(["quantity", "value"], rows,
                     title=f"solver service on a 100-job sweep (nu={NU}, 50% duplicates)"),
        csv="quantity,value\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n",
    )
    # acceptance: warm rerun >= 5x faster than the cold batch
    assert warm_speedup >= 5.0
    # dedup alone should come close to the ideal 2x on a 50% manifest
    assert cold_speedup >= 1.5
