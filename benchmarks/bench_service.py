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
  least 1.5× cheaper because each unique job is solved exactly once;
* **cold vs warm** — re-submitting the same batch against the populated
  cache must be at least **5× faster** (the acceptance criterion; in
  practice it is orders of magnitude);
* **cold phase split** — where the timed cold submit spends its time:
  planning (dedup, blocks), cache lookups, the pool phase and
  the cache stores (``store``), each summed over its calls by
  wrappers around exactly those calls (about a microsecond each); the
  rest of the submit is bookkeeping;
* **disk tier** (reported, not gated) — a cold submit into an empty
  ``cache_dir`` with its phase split, whose stores phase writes the
  pack, and a warm submit from a fresh service that reads it back.

Both speedup gates read the median of ``ROUNDS`` paired rounds, taken
after one untimed round; successive rounds swap which of the naive loop
and the cold submit runs first.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.service.service as service_module
from conftest import report
from repro.reporting import render_table
from repro.service import SolverService, SolveJob, execute_job, plan_batch

NU = 20
N_UNIQUE = 50
DUPLICATES = 50  # 50% of the 100-job manifest repeats an earlier job
ROUNDS = 7  # the speedup gates read the median of this many paired rounds


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


def _timed(fn):
    """``(seconds, fn())`` for one call of ``fn``."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _naive(jobs: list[SolveJob]) -> None:
    """Every request solved individually: no dedup, no cache."""
    for job in jobs:
        execute_job(job)


def _cold_and_warm(jobs: list[SolveJob], cache_dir=None):
    """Time a cold submit (phase-split) to a fresh service, then a warm
    re-submit: to the same service, or to a new one on ``cache_dir``.

    Returns ``(cold_s, phases, warm_s, warm_phases, warm_report)``."""
    service = SolverService(kind="serial", capacity=256, cache_dir=cache_dir)
    with phase_split(service) as phases:
        cold_s, cold = _timed(lambda: service.submit(jobs))
    assert cold.passed and cold.n_solved == N_UNIQUE
    phases["other"] = cold_s - sum(phases.values())
    if cache_dir is not None:
        service = SolverService(kind="serial", capacity=256, cache_dir=cache_dir)
    with phase_split(service) as warm_phases:
        warm_s, warm = _timed(lambda: service.submit(jobs))
    assert warm.n_solved == 0 and warm.n_cached == N_UNIQUE
    warm_phases["other"] = warm_s - sum(warm_phases.values())
    return cold_s, phases, warm_s, warm_phases, warm


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms"


def _median_phases(splits: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in splits) for name in splits[0]}


def test_cache_speedup_on_duplicate_sweep(benchmark, tmp_path):
    jobs = _sweep_jobs()

    # one untimed round, then ROUNDS rounds that alternate which of the
    # naive loop and the cold service goes first; each cold submit is
    # followed by its warm re-submit
    _naive(jobs)
    _cold_and_warm(jobs)
    naive_s, cold_s, warm_s, splits = [], [], [], []
    for r in range(ROUNDS):
        if r % 2:
            cold, phases, warm, _, _ = _cold_and_warm(jobs)
            naive, _ = _timed(lambda: _naive(jobs))
        else:
            naive, _ = _timed(lambda: _naive(jobs))
            cold, phases, warm, _, _ = _cold_and_warm(jobs)
        naive_s.append(naive)
        cold_s.append(cold)
        warm_s.append(warm)
        splits.append(phases)
    cold_speedup = statistics.median(n / c for n, c in zip(naive_s, cold_s))
    warm_speedup = statistics.median(c / w for c, w in zip(cold_s, warm_s))

    # the disk tier, not gated: a cold submit into an empty cache
    # directory, then a warm one from a fresh service reading it back
    disk_runs = [_cold_and_warm(jobs, str(tmp_path / f"cache{r}")) for r in range(ROUNDS)]
    for *_, warm_report in disk_runs:
        assert all(t.cache == "hit-disk" for t in warm_report.telemetry)

    # the pytest-benchmark target: a warm re-submit from memory
    service = SolverService(kind="serial", capacity=256)
    service.submit(jobs)
    warm = benchmark(lambda: service.submit(jobs))
    assert warm.n_solved == 0 and warm.n_cached == N_UNIQUE

    rows = [
        ["jobs in manifest", "100"],
        ["unique jobs", str(N_UNIQUE)],
        ["rounds (median of)", str(ROUNDS)],
        ["naive per-request loop", _ms(statistics.median(naive_s))],
        ["service, cold cache", _ms(statistics.median(cold_s))],
        ["service, warm cache", _ms(statistics.median(warm_s))],
        ["cold speedup vs naive", f"{cold_speedup:.1f}x"],
        ["warm speedup vs cold", f"{warm_speedup:.1f}x"],
    ]
    rows += [[f"cold phase: {name}", _ms(sec)] for name, sec in _median_phases(splits).items()]
    disk_cold = statistics.median(run[0] for run in disk_runs)
    disk_warm = statistics.median(run[2] for run in disk_runs)
    rows += [["disk tier: cold submit", _ms(disk_cold)]]
    rows += [
        [f"disk tier: cold phase: {name}", _ms(sec)]
        for name, sec in _median_phases([run[1] for run in disk_runs]).items()
    ]
    rows += [["disk tier: warm submit, fresh service", _ms(disk_warm)]]
    rows += [
        [f"disk tier: warm phase: {name}", _ms(sec)]
        for name, sec in _median_phases([run[3] for run in disk_runs]).items()
    ]
    report(
        "service_cache_speedup",
        render_table(["quantity", "value"], rows,
                     title=f"solver service on a 100-job sweep (nu={NU}, 50% duplicates)"),
        csv="quantity,value\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n",
    )
    # acceptance: the median warm rerun >= 5x faster than the cold batch
    assert warm_speedup >= 5.0
    # dedup alone should come close to the ideal 2x on a 50% manifest
    assert cold_speedup >= 1.5
