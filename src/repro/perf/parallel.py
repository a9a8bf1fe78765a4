"""Measured thread scaling for the panel engine.

The panel-parallel kernel (:mod:`repro.transforms.parallel`) runs the
same fused plan as the serial kernel, so it moves the same bytes
(:func:`repro.operators.batched.plan_costs` of that plan); threading can
only buy aggregate bandwidth, and it pays one barrier per sweep.  Which
wins on a host is measured here, not modeled:
:func:`measure_parallel_matmat` times the serial kernel against the
panel engine on one block, and ``benchmarks/bench_parallel.py`` records
the series into ``BENCH_parallel.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mutation.uniform import UniformMutation
from repro.operators.batched import plan_costs
from repro.transforms.batched import batched_butterfly_transform, fused_stage_plan
from repro.transforms.parallel import (
    auto_panels,
    get_engine,
    parallel_butterfly_transform,
    resolve_panels,
    resolve_threads,
)
from repro.util.blas import blas_limit
from repro.util.timing import median_time

__all__ = [
    "ParallelMeasurement",
    "measure_parallel_matmat",
    "measured_thread_scaling",
    "measured_thread_crossover",
]


@dataclass(frozen=True)
class ParallelMeasurement:
    """One measured serial-vs-threaded comparison point."""

    nu: int
    batch: int
    threads: int
    panels: int
    serial_s: float
    parallel_s: float
    bytes_moved: float

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the threaded transform over serial."""
        return self.serial_s / self.parallel_s

    @property
    def serial_gbs(self) -> float:
        return self.bytes_moved / self.serial_s / 1e9

    @property
    def parallel_gbs(self) -> float:
        return self.bytes_moved / self.parallel_s / 1e9

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "batch": self.batch,
            "threads": self.threads,
            "panels": self.panels,
            "serial_s": self.serial_s,
            "parallel_s": self.parallel_s,
            "bytes_moved": self.bytes_moved,
            "speedup": self.speedup,
            "serial_gbs": self.serial_gbs,
            "parallel_gbs": self.parallel_gbs,
        }


def measure_parallel_matmat(
    nu: int,
    batch: int,
    threads: int,
    *,
    panels: int | None = None,
    p: float = 0.01,
    repeats: int = 3,
    min_time: float = 0.01,
) -> ParallelMeasurement:
    """Time the serial fused kernel vs the panel engine on one block
    (right form: the plan with a shared pre-scale): ``repeats`` rounds,
    each timing both once in alternating order, so a load that comes
    and goes hits both alike; each side reports its median.

    BLAS threading is pinned to one thread for the duration (engine
    threads are the parallelism; see :mod:`repro.util.blas`) so the
    comparison is engine scaling, not BLAS scaling.
    """
    threads = resolve_threads(threads)
    plan = fused_stage_plan(UniformMutation(nu, p).factors_per_bit())
    r = (
        auto_panels(nu, batch, threads=threads)
        if panels is None
        else resolve_panels(panels, nu, radix=max(stage.radix for stage in plan))
    )
    n = 1 << nu
    rng = np.random.default_rng(nu)
    block = np.ascontiguousarray(rng.random((n, batch)) + 0.5)
    pre = np.ascontiguousarray(rng.random(n) + 0.5)
    out = np.empty_like(block)
    scratch = np.empty_like(block)
    engine = get_engine(threads)

    runs = {
        "serial": lambda: batched_butterfly_transform(
            block, plan, pre_scale=pre, out=out, scratch=scratch
        ),
        "parallel": lambda: parallel_butterfly_transform(
            block, plan, pre_scale=pre, panels=r, engine=engine, out=out, scratch=scratch
        ),
    }
    samples: dict[str, list[float]] = {name: [] for name in runs}
    with blas_limit(1):
        for k in range(repeats):
            for name in ("serial", "parallel")[:: 1 if k % 2 == 0 else -1]:
                samples[name].append(median_time(runs[name], repeats=1, min_time=min_time).median)
    return ParallelMeasurement(
        nu=nu,
        batch=batch,
        threads=threads,
        panels=r,
        serial_s=float(np.median(samples["serial"])),
        parallel_s=float(np.median(samples["parallel"])),
        bytes_moved=plan_costs(plan, n, batch, pre.shape).bytes_moved,
    )


def measured_thread_scaling(
    nu: int,
    batch: int,
    threads: tuple[int, ...] = (1, 2, 4, 8),
    *,
    repeats: int = 3,
    min_time: float = 0.01,
) -> list[ParallelMeasurement]:
    """Measured scaling curve over thread counts (one block size)."""
    return [
        measure_parallel_matmat(nu, batch, t, repeats=repeats, min_time=min_time)
        for t in threads
    ]


def measured_thread_crossover(
    nu: int,
    batch: int,
    *,
    target_speedup: float = 1.8,
    threads: tuple[int, ...] = (2, 4, 8),
    repeats: int = 3,
    min_time: float = 0.01,
) -> int | None:
    """Smallest measured thread count reaching ``target_speedup`` over
    the serial kernel (``None`` if none of the probed counts does —
    including on hosts without enough cores to scale at all)."""
    for t in threads:
        m = measure_parallel_matmat(nu, batch, t, repeats=repeats, min_time=min_time)
        if m.speedup >= target_speedup:
            return t
    return None
