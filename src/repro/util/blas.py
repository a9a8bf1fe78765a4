"""BLAS threadpool pinning — keep engine threads and BLAS threads from
multiplying.

The panel engine parallelizes *across* each butterfly sweep's chunks;
the ``matmul`` each worker issues must therefore run single-threaded, or a
4-thread engine on a 4-core host would fan out into 16 runnable BLAS
threads and thrash (the oversubscription rule documented in
``docs/performance.md``: **pool workers × engine threads × BLAS threads
≤ cores**).

Two mechanisms, best available wins:

* `threadpoolctl <https://github.com/joblib/threadpoolctl>`_, when
  importable, limits the already-loaded BLAS at runtime — exact and
  reversible;
* otherwise the standard environment knobs (``OMP_NUM_THREADS``,
  ``OPENBLAS_NUM_THREADS``, …) are set.  These only bind when the BLAS
  initializes its pool *after* they are set, so the env fallback is
  applied eagerly by process-pool initializers (before workers import
  heavy kernels) and is best-effort inside an already-warm process.

No hard dependency is taken on ``threadpoolctl`` — the repo's only
runtime requirements stay NumPy + SciPy.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator

__all__ = [
    "BLAS_ENV_VARS",
    "pin_blas_env",
    "blas_limit",
    "blas_thread_info",
]

#: The environment knobs honored by the common BLAS/OpenMP runtimes.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

try:  # pragma: no cover - exercised only where threadpoolctl exists
    import threadpoolctl as _threadpoolctl
except ImportError:  # the container image does not ship it
    _threadpoolctl = None


def pin_blas_env(limit: int = 1, *, overwrite: bool = True) -> dict[str, str]:
    """Set the BLAS/OpenMP thread environment knobs to ``limit``.

    Returns the previous values of the variables that were changed (for
    callers that want to restore them).  Used by the worker-pool process
    initializer and the benchmarks so every measured kernel runs on a
    known BLAS thread budget.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    previous: dict[str, str] = {}
    for var in BLAS_ENV_VARS:
        if not overwrite and var in os.environ:
            continue
        if var in os.environ:
            previous[var] = os.environ[var]
        os.environ[var] = str(limit)
    return previous


@contextlib.contextmanager
def blas_limit(limit: int = 1) -> Iterator[bool]:
    """Scoped BLAS thread limit.

    Yields ``True`` when the limit is *exact* (threadpoolctl throttled
    the live BLAS pool) and ``False`` when only the best-effort env
    fallback applied.  Either way, prior state is restored on exit.
    """
    if _threadpoolctl is not None:  # pragma: no cover - env-dependent
        with _threadpoolctl.threadpool_limits(limits=limit):
            yield True
        return
    previous = pin_blas_env(limit)
    added = [v for v in BLAS_ENV_VARS if v not in previous]
    try:
        yield False
    finally:
        for var, val in previous.items():
            os.environ[var] = val
        for var in added:
            os.environ.pop(var, None)


def blas_thread_info() -> dict:
    """Host/BLAS threading metadata for benchmark provenance.

    Recorded into ``BENCH_parallel.json`` so a scaling curve can always
    be traced back to the thread budget it ran under.
    """
    info: dict = {
        "cpu_count": os.cpu_count(),
        "threadpoolctl": _threadpoolctl is not None,
        "env": {v: os.environ[v] for v in BLAS_ENV_VARS if v in os.environ},
    }
    if _threadpoolctl is not None:  # pragma: no cover - env-dependent
        try:
            info["pools"] = [
                {
                    "internal_api": p.get("internal_api"),
                    "num_threads": p.get("num_threads"),
                }
                for p in _threadpoolctl.threadpool_info()
            ]
        except Exception:  # noqa: BLE001 - provenance only, never fatal
            pass
    return info
