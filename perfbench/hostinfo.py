"""Host facts and the stream-copy probe the benchmark prints beside its
per-layer rates."""

from __future__ import annotations

import glob
import os
import platform
import time

__all__ = ["host_facts", "last_level_cache_bytes", "stream_copy_gbs"]

#: the BLAS/OpenMP thread knobs; the same list as
#: ``repro.util.blas.BLAS_ENV_VARS``, repeated here because the benchmark
#: sets them before anything imports numpy
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def last_level_cache_bytes() -> int:
    """Size of the highest-level cache of CPU 0 (0 if unknown)."""
    best_level, best_size = -1, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = _parse_size(fh.read())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    """nproc, CPU model, LLC size, numpy version and BLAS pin state."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": last_level_cache_bytes(),
        "numpy": np.__version__,
        "blas_env": {v: os.environ.get(v, "unset") for v in BLAS_ENV_VARS},
    }


def stream_copy_gbs(llc_bytes: int, *, repeats: int = 5) -> tuple[float, int]:
    """Best-of-``repeats`` copy bandwidth over arrays of at least four
    times the last-level cache (64 MiB minimum); returns ``(GB/s, bytes
    per array)``.  A copy reads and writes each byte once, so it moves
    twice the array size."""
    import numpy as np

    nbytes = max(4 * llc_bytes, 64 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best / 1e9, src.nbytes
